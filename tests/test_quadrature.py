"""Unit tests for the product-integration quadrature engine."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszkit import (Ball, CallableProfile, QuadratureScheme, SampledFunction, equal_split,
                      indicator, scalar_family)
from rieszkit.operators import apply_T_batch
from rieszkit.quadrature import (LogPowerProfile, PowerProfile, ProductProfile,
                                 RadialSingularity, combine_profiles,
                                 gauss_jacobi, graded_edges, integrate_ball,
                                 integrate_cells_1d, integrate_disk, lebesgue_ball,
                                 log_ball_integral)


def test_scheme_validation():
    with pytest.raises(ValueError):
        QuadratureScheme(resolution=8)
    with pytest.raises(ValueError):
        QuadratureScheme(tol=0.0)


def test_power_profile_primitive_matches_quadrature():
    p = PowerProfile(-0.5)
    exact = p.primitive(0.0, 1.0, 1)
    assert exact == pytest.approx(2.0)  # integral of r^{-1/2} over [0, 1]
    assert p.primitive(0.0, 1.0, 2) == pytest.approx(1.0 / 1.5)
    assert math.isinf(PowerProfile(-1.0).primitive(0.0, 1.0, 1))


def test_log_profile_primitive():
    p = LogPowerProfile(1.0)
    # integral of log(1/r) over [0, 1/e] is 2/e
    assert p.primitive(0.0, math.exp(-1), 1) == pytest.approx(2.0 / math.e, rel=1e-12)
    # the flat branch beyond 1/e contributes plain length
    v = p.primitive(0.0, 1.0, 1)
    assert v == pytest.approx(2.0 / math.e + (1.0 - math.exp(-1)), rel=1e-12)


def test_log_profile_negative_power_uses_quad():
    p = LogPowerProfile(-2.0)
    lo, hi = 0.01, 0.2
    from scipy.integrate import quad

    ref, _ = quad(lambda r: math.log(1.0 / r) ** -2.0, lo, hi)
    assert p.primitive(lo, hi, 1) == pytest.approx(ref, rel=1e-9)


def _mp_primitive(e, s, n, u, v):
    """40-digit integral of r^(e+n-1) L(r)^s over [u, v]: tanh-sinh quadrature
    of exp(-g t) t^s in t = log(1/r) below the knee, the power rule above it."""
    import mpmath as mp

    with mp.workdps(40):
        knee = mp.mpf(math.exp(-1.0))
        u, v = mp.mpf(u), mp.mpf(v)
        g = mp.mpf(e) + n
        total = mp.mpf(0)
        top = min(v, knee)
        if u < top:
            t_top = -mp.log(top)
            t_u = mp.inf if u == 0 else -mp.log(u)
            total += mp.quad(lambda t: mp.exp(-g * t) * t**s, [t_top, t_u])
        if v > knee:
            lo = max(u, knee)
            total += mp.log(v / lo) if g == 0 else (v**g - lo**g) / g
        return total


_PROFILE_S = (-3.25, -2.0, -1.5, -1.0, -0.5, 1.0, 2.0)
_PROFILE_E = (0.0, 0.5, -0.5, -1.0, -1.5)
_KNEE = math.exp(-1.0)


def test_radial_profile_cells_match_mpmath():
    """Gauss-Legendre cells (u > 0): thin, wide and knee-straddling cells."""
    cells = [(1e-3, 1e-3 * (1 + 1e-7)), (0.05, 0.1), (0.01, 0.011), (1e-6, 2e-6),
             (1e-12, 1e-3), (0.2, _KNEE), (0.3, 0.5), (0.1, 2.0), (0.5, 0.75)]
    u = np.array([c[0] for c in cells])
    v = np.array([c[1] for c in cells])
    worst = 0.0
    for s in _PROFILE_S:
        for e in _PROFILE_E:
            for n in (1, 2):
                got = ProductProfile(e, s).primitive_vec(u, v, n)
                for a, b, val in zip(u, v, got):
                    ref = _mp_primitive(e, s, n, a, b)
                    worst = max(worst, float(abs(val - ref) / abs(ref)))
    assert worst <= 1e-13


def test_radial_profile_cells_from_zero_match_mpmath():
    """Cells [0, v]: log-space Gauss-Legendre panels out to the e**-46 tail."""
    worst = 0.0
    for s in _PROFILE_S:
        for e in _PROFILE_E:
            for n in (1, 2):
                if e + n <= 0:
                    assert math.isinf(ProductProfile(e, s).primitive(0.0, 0.1, n))
                    continue
                for b in (1e-12, 1e-8, 1e-3, 0.1, _KNEE, 0.9):
                    val = ProductProfile(e, s).primitive(0.0, b, n)
                    ref = _mp_primitive(e, s, n, 0.0, b)
                    worst = max(worst, float(abs(val - ref) / abs(ref)))
    assert worst <= 1e-13


def test_log_power_mean_against_mpmath():
    """(avg over B(0, 1/8) of 1/log(1/|x|))^-1, the A_2 dual mean of the log weight."""
    import mpmath as mp

    from rieszkit import LogExampleWeight, power_mean

    with mp.workdps(30):
        ref = 1 / (8 * mp.quad(lambda r: 1 / mp.log(1 / r), [0, mp.mpf(1) / 8]))
    got = power_mean(LogExampleWeight(), -1.0, Ball([0.0], 0.125))
    assert got == pytest.approx(float(ref), rel=1e-9)


def test_combine_profiles_power():
    c = combine_profiles(PowerProfile(-0.25), PowerProfile(-0.5))
    assert isinstance(c, PowerProfile)
    assert c.exponent == -0.75
    mixed = combine_profiles(PowerProfile(-0.25), LogPowerProfile(1.0))
    assert isinstance(mixed, ProductProfile)
    assert (mixed.exponent, mixed.s) == (-0.25, 1.0)
    logs = combine_profiles(mixed, combine_profiles(PowerProfile(0.25), LogPowerProfile(-2.0)))
    assert isinstance(logs, LogPowerProfile) and logs.s == -1.0


def test_interval_plain_midpoint():
    v = integrate_cells_1d(lambda x: x**2, np.linspace(0.0, 1.0, 512 + 1))
    assert v == pytest.approx(1.0 / 3.0, rel=1e-5)


def test_interval_with_interior_singularity():
    sing = [RadialSingularity((0.0,), PowerProfile(-0.5))]
    v = integrate_cells_1d(lambda x: np.abs(x) ** -0.5, np.linspace(-1.0, 1.0, 256 + 1),
                           sing)
    assert v == pytest.approx(4.0, rel=1e-12)


def test_interval_singularity_off_center():
    # singular point away from the interval center, smooth cofactor
    sing = [RadialSingularity((0.25,), PowerProfile(-0.5))]

    def fn(x):
        return np.abs(x - 0.25) ** -0.5 * np.cos(x)

    from scipy.integrate import quad

    ref = (quad(lambda x: abs(x - 0.25) ** -0.5 * math.cos(x), -1, 0.25)[0]
           + quad(lambda x: abs(x - 0.25) ** -0.5 * math.cos(x), 0.25, 1)[0])
    v = integrate_cells_1d(fn, np.linspace(-1.0, 1.0, 512 + 1), sing)
    assert v == pytest.approx(ref, rel=1e-6)


def test_interval_nonintegrable_returns_inf():
    sing = [RadialSingularity((0.0,), PowerProfile(-1.5))]
    v = integrate_cells_1d(lambda x: np.abs(x) ** -1.5, np.linspace(-1.0, 1.0, 128 + 1),
                           sing)
    assert math.isinf(v)


def test_two_singularities_disjoint_regions():
    sing = [RadialSingularity((-0.5,), PowerProfile(-0.5)),
            RadialSingularity((0.5,), PowerProfile(-0.25))]

    def fn(x):
        return np.abs(x + 0.5) ** -0.5 * np.abs(x - 0.5) ** -0.25

    from scipy.integrate import quad

    parts = [quad(lambda x: abs(x + 0.5) ** -0.5 * abs(x - 0.5) ** -0.25, a, b,
                  limit=400)[0]
             for a, b in ((-1, -0.5), (-0.5, 0.5), (0.5, 1))]
    v = integrate_cells_1d(fn, np.linspace(-1.0, 1.0, 512 + 1), sing)
    assert v == pytest.approx(sum(parts), rel=1e-5)


def test_coincident_singularities_merge():
    sing = [RadialSingularity((0.0,), PowerProfile(-0.5)),
            RadialSingularity((0.0,), PowerProfile(-0.25))]
    v = integrate_cells_1d(lambda x: np.abs(x) ** -0.75, np.linspace(-1.0, 1.0, 256 + 1),
                           sing)
    assert v == pytest.approx(2.0 / 0.25, rel=1e-12)  # 2 * r^{1/4}/(1/4) at r=1


def test_disk_area_and_moment():
    ball = Ball([0.0, 0.0], 1.0)
    area = integrate_ball(lambda p: np.ones(p.shape[0]), ball)
    assert area == pytest.approx(math.pi, rel=1e-3)
    second = integrate_ball(lambda p: np.sum(p * p, axis=1), ball)
    assert second == pytest.approx(math.pi / 2.0, rel=2e-3)


@pytest.mark.parametrize("center, radius", [((0.0, 0.0), 1.0), ((0.3, -1.7), 0.37),
                                            ((1e3, 1.0), 1e-3)])
@pytest.mark.parametrize("resolution", [64, 512])
def test_disk_cells_carry_the_exact_area(center, radius, resolution):
    """Boundary cells share |cell & B| among their inside subgrid points, so
    the integral of 1 is pi r^2 to rounding (5.1e-5 high at 64 cells per
    radius when each subgrid point carried (h / 8)^2)."""
    area = integrate_disk(lambda p: np.ones(p.shape[0]), center, radius, resolution)
    assert abs(area - math.pi * radius * radius) <= 1e-13 * math.pi * radius * radius


def test_disk_radial_singularity():
    ball = Ball([0.0, 0.0], 1.0)
    sing = [RadialSingularity((0.0, 0.0), PowerProfile(-1.0))]
    v = integrate_ball(lambda p: np.linalg.norm(p, axis=1) ** -1.0, ball,
                       singularities=sing)
    assert v == pytest.approx(2.0 * math.pi, rel=1e-3)


def test_graded_edges_shapes():
    e = graded_edges(1.0, 100.0, h0=0.1, block=8)
    assert e[0] == 1.0 and e[-1] == pytest.approx(100.0)
    assert np.all(np.diff(e) > 0)
    e2 = graded_edges(1.0, -5.0, h0=0.1, block=8)
    assert e2[0] == pytest.approx(-5.0) and e2[-1] == 1.0


def test_lebesgue_ball():
    assert lebesgue_ball(1, 2.0) == 4.0
    assert lebesgue_ball(2, 1.0) == pytest.approx(math.pi)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-0.9, max_value=0.9),
       st.floats(min_value=0.1, max_value=2.0))
def test_power_singularity_any_center(c, r):
    """Product integration reproduces the exact integral of |x-c|^{-1/2}."""
    sing = [RadialSingularity((c,), PowerProfile(-0.5))]
    v = integrate_cells_1d(lambda x: np.abs(x - c) ** -0.5,
                           np.linspace(c - r, c + r, 128 + 1), sing)
    assert v == pytest.approx(4.0 * math.sqrt(r), rel=1e-10)


def _two_reflection_indicator(lo, hi, x, cells=False):
    """T chi_[lo, hi](x) for the kernel |x - y|^{-1/2} |x + y|^{-1/2},
    0 < lo < x < hi, computed by the operator and in closed form.  With
    ``cells`` the indicator is a callable profile of ones, which takes the
    cell rule instead of the Gauss-Jacobi one."""
    f = indicator([0.5 * (lo + hi)], 0.5 * (hi - lo))
    if cells:
        f = SampledFunction(f.ball, CallableProfile(lambda p: np.ones(len(p))))
    fam = scalar_family([1.0, -1.0], pairwise_invertible=True)
    value = apply_T_batch(f, np.array([[x]]), equal_split(0.0, 2, 1), fam)[0]
    exact = 0.5 * math.pi - math.asin(lo / x) + math.acosh(hi / x)
    return value, exact


def test_endpoint_sliver_keeps_its_mass():
    """A singularity 4e-5 inside the support endpoint leaves a sliver piece
    next to it that keeps its mass."""
    value, exact = _two_reflection_indicator(0.5, 1.5, 0.5 + 4e-5)
    assert abs(value - exact) <= 1e-12 * abs(exact)


def test_singularity_one_ulp_from_cell_edge():
    # 1.0 splits [0.5, 1.5] in two equal halves
    for x in (np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)):
        value, exact = _two_reflection_indicator(0.5, 1.5, float(x))
        assert math.isfinite(value)
        assert abs(value - exact) <= 1e-12 * abs(exact)


def test_cell_rule_endpoint_sliver_keeps_its_mass():
    """On the cell rule the singularity 4e-5 inside the support endpoint (well
    under cell/8) leaves a sliver sub-cell whose bounded factor must be
    sampled inside it."""
    value, exact = _two_reflection_indicator(0.5, 1.5, 0.5 + 4e-5, cells=True)
    assert abs(value - exact) <= 1e-5


def test_cell_rule_singularity_one_ulp_from_cell_edge():
    # 1.0 is the middle cell edge of the 1024-cell grid on [0.5, 1.5]
    for x in (np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)):
        value, exact = _two_reflection_indicator(0.5, 1.5, float(x), cells=True)
        assert math.isfinite(value)
        assert abs(value - exact) <= 1e-5


def test_cell_rule_sub_ulp_sliver_takes_its_outer_edge():
    """With the middle cell edge moved one ulp off the singularity at 1.0, the
    one-ulp sub-cell's midpoint rounds (to even) onto the singularity; its
    bounded factor is sampled at the sub-cell's outer edge instead."""
    sings = [RadialSingularity((1.0,), PowerProfile(-0.5)),
             RadialSingularity((-1.0,), PowerProfile(-0.5))]
    exact = 0.5 * math.pi - math.asin(0.5) + math.acosh(1.5)
    for edge in (np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)):
        edges = np.linspace(0.5, 1.5, 1025)
        edges[512] = edge
        value = integrate_cells_1d(lambda y: np.abs(1.0 - y) ** -0.5 * np.abs(1.0 + y) ** -0.5,
                                   edges, sings)
        assert abs(value - exact) <= 1e-5


@pytest.mark.parametrize("alpha, beta", [(-0.5, 0.0), (-0.5, -0.5), (-0.25, -0.75),
                                         (-0.999, 0.0)])
def test_gauss_jacobi_matches_mpmath(alpha, beta):
    """The 16-point rule against mpmath's 30-digit Golub-Welsch rule; (-1/2, -1/2)
    is the zero-order kernel's, where the recurrence's first term is 0/0.  The
    rule returns log weights, so a log weight within 2e-14 is a weight within
    2e-14 relative."""
    t, logw = gauss_jacobi(16, alpha, beta)
    with mpmath.workdps(30):
        nodes, weights = mpmath.gauss_quadrature(16, "jacobi", mpmath.mpf(alpha),
                                                 mpmath.mpf(beta))
        ref = sorted(zip(nodes, weights))
    assert np.all(np.diff(t) > 0)
    for k, (x, wx) in enumerate(ref):
        assert abs(t[k] - float(x)) <= 2.5e-16
        assert abs(logw[k] - float(mpmath.log(wx))) <= 2e-14
    with pytest.raises(ValueError):
        gauss_jacobi(16, -1.0, 0.0)


@pytest.mark.parametrize("d", [1e-300, 1e-12, 0.999999, 1.000001, 1e4, 1e10, 1e15, 1e100])
def test_thin_annulus_keeps_its_digits(d):
    """The plane ball integral of 1 / |y| over the unit disk at distance d
    from the singular point.  A point near the center, or a disk far from
    the point, leaves an annulus |1 - d| < r < 1 + d that is thin next to its
    radius; it keeps its digits against the elliptic closed form (parameter
    m), and far out the logarithm keeps them against pi / d."""
    got = log_ball_integral(PowerProfile(-1.0), [d, 0.0], 1.0)
    with mpmath.workdps(60):
        dd = mpmath.mpf(d)
        if d > 1e20:
            assert abs(got - mpmath.log(mpmath.pi / dd)) <= 1e-13 * abs(got)
            return
        if dd <= 1:
            exact = 4 * mpmath.ellipe(dd ** 2)
        else:
            m = 1 / dd ** 2
            exact = 4 * dd * (mpmath.ellipe(m) - (1 - m) * mpmath.ellipk(m))
        assert abs(math.exp(got) - exact) <= 1e-13 * exact
