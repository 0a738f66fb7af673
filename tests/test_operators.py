"""Kernel evaluation, operator quadrature, maximal functions, weighted norms."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszkit import (AtomParams, Ball, CallableProfile, ExponentProfile, GridProfile,
                      IndicatorProfile, MaximalPolicy, PolynomialProfile, PowerWeight,
                      QuadratureDiverged, QuadratureScheme, SampledFunction, apply_T,
                      construct_atom, equal_split, fractional_maximal,
                      fractional_maximal_witness, hl_maximal, hl_maximal_witness,
                      identity_family, indicator, riesz_potential, scalar_family)
from rieszkit.geometry import MatrixFamily
from rieszkit.operators import (FAR_FIELD_ORDER, _polynomial_moments, apply_T_ball_1d,
                                apply_T_batch, sampled_from_csv)
from rieszkit.atoms import CampaignSpec, multiindices
from rieszkit.verify import _expanded_intervals, _truncation_extent


def test_exponent_profile_validation():
    with pytest.raises(ValueError):
        ExponentProfile(0.0, (1.0,), 1)        # zero order needs two factors
    with pytest.raises(ValueError):
        ExponentProfile(0.5, (0.25, 0.3), 1)   # wrong sum
    with pytest.raises(ValueError):
        ExponentProfile(1.0, (0.5,), 1)        # order must stay below n
    prof = equal_split(0.0, 2, 1)
    assert prof.alphas == (0.5, 0.5)


def test_apply_T_anchor_riesz_1d():
    f = indicator([0.0], 1.0)
    assert riesz_potential(f, [0.0], 0.5) == pytest.approx(4.0, rel=1e-3)


def test_apply_T_anchor_zero_order():
    f = indicator([1.5], 0.5)
    prof = equal_split(0.0, 2, 1)
    fam = scalar_family([1.0, -1.0], pairwise_invertible=True)
    assert apply_T(f, [0.0], prof, fam) == pytest.approx(math.log(2.0), rel=1e-3)


def test_apply_T_anchor_riesz_2d():
    f = indicator([0.0, 0.0], 1.0)
    assert riesz_potential(f, [0.0, 0.0], 1.0) == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_riesz_outside_support():
    f = indicator([0.0], 1.0)
    exact = 2.0 * (2.0 - math.sqrt(2.0))
    assert riesz_potential(f, [3.0], 0.5) == pytest.approx(exact, rel=1e-6)


def test_linearity():
    ball = Ball([0.0], 1.0)
    f = SampledFunction(ball, PolynomialProfile({(0,): 1.0, (2,): -0.5}))
    g = SampledFunction(ball, PolynomialProfile({(1,): 1.0, (3,): 0.25}))
    combo = SampledFunction(ball, f.profile.plus(g.profile.scaled(3.0)).scaled(2.0))
    prof = ExponentProfile(0.5, (0.5,), 1)
    fam = identity_family(1)
    for x in ([0.3], [2.0], [-5.0]):
        lhs = apply_T(combo, x, prof, fam, check_convergence=False)
        rhs = 2.0 * (apply_T(f, x, prof, fam, check_convergence=False)
                     + 3.0 * apply_T(g, x, prof, fam, check_convergence=False))
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_riesz_scaling_by_two():
    f = indicator([0.0], 1.0)
    v1 = riesz_potential(f, [0.5], 0.5, check_convergence=False)
    v2 = riesz_potential(f.scaled(2.0), [0.5], 0.5, check_convergence=False)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-10)


def test_riesz_dilation_law():
    # I_alpha(f(lambda .))(x) = lambda^{-alpha} I_alpha(f)(lambda x)
    lam, alpha = 2.0, 0.5
    f = indicator([0.0], 1.0)            # chi_{B(0,1)}
    f_lam = indicator([0.0], 1.0 / lam)  # chi_{B(0,1)}(lambda y)
    for x in (0.25, 1.3, -2.0):
        lhs = riesz_potential(f_lam, [x], alpha, check_convergence=False)
        rhs = lam**-alpha * riesz_potential(f, [lam * x], alpha, check_convergence=False)
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_monotonicity_under_pointwise_domination():
    ball = Ball([0.0], 1.0)
    small = SampledFunction(ball, PolynomialProfile({(0,): 0.5, (2,): -0.25}))
    big = SampledFunction(ball, PolynomialProfile({(0,): 1.0}))
    prof = ExponentProfile(0.5, (0.5,), 1)
    fam = identity_family(1)
    policy = MaximalPolicy(cells_per_unit=64)
    for x in ([0.1], [2.5]):
        assert apply_T(small, x, prof, fam, check_convergence=False) <= \
            apply_T(big, x, prof, fam, check_convergence=False) + 1e-12
        assert hl_maximal(small, x, policy) <= hl_maximal(big, x, policy) + 1e-12


def test_quadrature_convergence_on_anchors():
    f = indicator([0.0], 1.0)
    scheme = QuadratureScheme(resolution=512)
    v1 = riesz_potential(f, [0.0], 0.5, scheme, check_convergence=False)
    v2 = riesz_potential(f, [0.0], 0.5, scheme.refined(2), check_convergence=False)
    assert abs(v2 - v1) < scheme.tol


def test_quadrature_diverged_raises():
    # a grid of ones, not the indicator: the disk's indicator is exact and
    # does not move under refinement
    f = SampledFunction(Ball([0.0, 0.0], 1.0), GridProfile(np.ones((8, 8))))
    tight = QuadratureScheme(resolution=32, tol=1e-9)
    with pytest.raises(QuadratureDiverged):
        riesz_potential(f, [0.0, 0.0], 1.0, tight)


def test_hl_maximal_examples():
    f = indicator([0.0], 1.0)
    assert hl_maximal(f, [0.0]) == pytest.approx(1.0)
    assert hl_maximal(f, [2.0]) == pytest.approx(2.0 / 3.0)
    assert hl_maximal(f, [5.0]) == pytest.approx(1.0 / 3.0)


def test_fractional_maximal_examples():
    f = indicator([0.0], 1.0)
    assert fractional_maximal(f, [0.0], 0.5) == pytest.approx(math.sqrt(2.0))
    v, witness = fractional_maximal_witness(f, [3.0], 0.5)
    assert v == pytest.approx(1.0)       # optimum [-1, 3]
    assert witness[0] == pytest.approx(-1.0)
    assert witness[1] == pytest.approx(3.0)


def test_fractional_limit_toward_full_mass():
    f = indicator([0.0], 1.0)
    policy = MaximalPolicy(cells_per_unit=64)
    vals = [fractional_maximal(f, [0.0], b, policy) for b in (0.9, 0.99, 0.999)]
    # as the order approaches n the value approaches the full integral 2
    assert abs(vals[-1] - 2.0) < abs(vals[0] - 2.0)
    assert vals[-1] == pytest.approx(2.0, rel=0.01)


def test_maximal_witness_consistency():
    f = indicator([0.0], 1.0)
    policy = MaximalPolicy(cells_per_unit=64)
    for x in ([2.0], [0.3], [-4.0]):
        m, (u, v) = hl_maximal_witness(f, x, policy)
        beta = 0.5
        frac = fractional_maximal(f, x, beta, policy)
        assert frac >= (v - u) ** beta * m - 1e-12


def test_maximal_refinement_improves():
    f = indicator([0.0], 1.0)
    coarse = MaximalPolicy(cells_per_unit=3)
    fine = coarse.refine(8)
    x = [1.7]
    assert hl_maximal(f, x, coarse) <= hl_maximal(f, x, fine) + 1e-12


def test_sampled_function_csv_roundtrip(tmp_path):
    cells = 64
    edges = np.linspace(-1, 1, cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    vals = np.cos(mids)
    path = tmp_path / "samples.csv"
    np.savetxt(path, np.column_stack([mids, vals]), delimiter=",")
    f = sampled_from_csv(path, Ball([0.0], 1.0))
    assert f.eval(np.array([[0.0]]))[0] == pytest.approx(math.cos(mids[cells // 2]))
    assert f.eval(np.array([[5.0]]))[0] == 0.0


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=1.2, max_value=8.0))
def test_hl_maximal_closed_form_right_of_support(x):
    # for chi_[-1,1] and x > 1 the optimum interval is [-1, x]
    f = indicator([0.0], 1.0)
    assert hl_maximal(f, [x]) == pytest.approx(2.0 / (x + 1.0), rel=1e-12)


def test_maximal_2d_is_lower_bound():
    f = indicator([0.0, 0.0], 1.0)
    assert hl_maximal(f, [0.0, 0.0]) <= 1.0 + 1e-12
    assert 0.5 < hl_maximal(f, [0.0, 0.0])
    # fractional order 1: the support ball itself gives sqrt(pi)
    v = fractional_maximal(f, [0.0, 0.0], 1.0)
    assert v <= math.sqrt(math.pi) + 1e-9
    assert v > 0.9 * math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# far-field multipole rule
# ---------------------------------------------------------------------------

#: a three-factor kernel: z_j = lambda_j r / D_j of mixed sizes and signs,
#: where the series recurrence has m = 3 terms per step
THREE_FACTOR = (ExponentProfile(0.2, (0.3, 0.3, 0.2), 1), (1.0, 2.0, -0.5))
FAR_FIELD_KERNELS = {"zero-order": (equal_split(0.0, 2, 1), (1.0, -1.0)),
                     "alpha-half": (ExponentProfile(0.5, (0.25, 0.25), 1), (1.0, -1.0)),
                     "three-factor": THREE_FACTOR}


def _mpmath_T(coeffs, center, radius, x, profile, lams):
    """40-digit quadrature of the polynomial atom against the product kernel."""
    with mpmath.workdps(40):
        X = mpmath.mpf(x)

        def integrand(y):
            poly = mpmath.fsum(c * ((y - center) / radius) ** k for k, c in coeffs)
            return poly * mpmath.fprod(abs(X - lam * y) ** (-a)
                                       for lam, a in zip(lams, profile.alphas))

        return float(mpmath.quad(integrand, [center - radius, center, center + radius]))


@pytest.mark.parametrize("kernel", sorted(FAR_FIELD_KERNELS))
@pytest.mark.parametrize("d", [0, 1, 2])
def test_far_field_matches_mpmath(kernel, d):
    """Atoms with vanishing moments, every point at least 3 radii out in each
    preimage, out to the campaign's truncation (``verify._truncation_extent``):
    relative error <= 3e-13, the README's bound."""
    profile, lams = FAR_FIELD_KERNELS[kernel]
    fam = scalar_family(list(lams), pairwise_invertible=True)
    octaves = CampaignSpec().outer_octaves
    for center, radius in ((0.0, 0.25), (-2.0, 1.0), (1.0, 4.0)):
        ball = Ball([center], radius)
        atom = construct_atom(ball, AtomParams(1.0, 2.0, d, PowerWeight(0.5), 1), seed=11)
        coeffs = sorted((k[0], c) for k, c in atom.profile.coeffs.items())
        truncation = _truncation_extent(_expanded_intervals(ball, fam), octaves)
        side = np.geomspace(max(map(abs, lams)) * (abs(center) + 3.0 * radius), truncation, 4)
        xs = np.concatenate([-side[::-1], side])
        assert all(abs(x / lam - center) >= 3.0 * radius for x in xs for lam in lams)
        vals = apply_T_batch(atom.function(), xs[:, None], profile, fam)
        for x, v in zip(xs, vals):
            ref = _mpmath_T(coeffs, center, radius, x, profile, lams)
            assert abs(v - ref) <= 3e-13 * abs(ref), (center, radius, x, v, ref)


@pytest.mark.parametrize("alphas, lams, x", [((0.5,), (1.0,), -1.25),
                                             ((0.25, 0.25), (1.0, -1.0), 3.5),
                                             ((0.5, 0.5), (1.0, -1.0), 1.75),
                                             ((0.3, 0.3, 0.2), (1.0, 2.0, -0.5), 3.5)])
def test_far_field_series_matches_mpmath_taylor(alphas, lams, x):
    """The recurrence's coefficients S_k, k <= 40, of
    S(u) = prod_j (1 - z_j u)^(-a_j), z_j = lambda_j r / (x - lambda_j c), read
    through unit moment vectors, against mpmath.taylor at 40 digits, for
    m = 1, 2, 3 and z of mixed sign with |z| <= 1/3, the far field's edge
    reached in three of the four cases.  Each |S_k| lies below
    C(k + m - 1, m - 1) 3^-k, so the tail past K = 40 is at most the
    README's 4.2e-20, 1.8e-18 and 3.9e-17 of scale * integral |p|."""
    from rieszkit.operators import _far_field_1d

    m, (c, r) = len(alphas), (0.25, 0.5)
    profile = ExponentProfile(1.0 - sum(alphas), alphas, 1)
    fam = scalar_family(list(lams), pairwise_invertible=m > 1)
    units = list(np.eye(FAR_FIELD_ORDER + 1))
    rows = _far_field_1d(np.array([x]), units, profile, fam, Ball([c], r))[:, 0]
    with mpmath.workdps(40):
        zs = [mpmath.mpf(lam) * r / (x - lam * c) for lam in lams]
        assert max(abs(z) for z in zs) <= mpmath.mpf(1) / 3
        assert m == 1 or min(zs) < 0 < max(zs)
        scale = r * mpmath.fprod(abs(x - lam * c) ** -mpmath.mpf(a)
                                 for lam, a in zip(lams, alphas))
        ref = mpmath.taylor(lambda u: mpmath.fprod((1 - z * u) ** -mpmath.mpf(a)
                                                   for z, a in zip(zs, alphas)),
                            0, FAR_FIELD_ORDER)
        for k, (row, s) in enumerate(zip(rows, ref)):
            bound = math.comb(k + m - 1, m - 1) * mpmath.mpf(3) ** -k
            assert abs(s) <= bound
            assert abs(row - scale * s) <= 1e-14 * scale * bound, (k, row, s)
        tail = mpmath.nsum(lambda k: mpmath.binomial(k + m - 1, m - 1) * 3 ** -k,
                           [FAR_FIELD_ORDER + 1, mpmath.inf])
        assert tail <= {1: 4.2e-20, 2: 1.8e-18, 3: 3.9e-17}[m]


def test_far_field_memory_is_linear_in_the_points():
    """200,000 far points and 8 atoms on B(0, 1) under thm1's kernel: the
    series is streamed into the contraction, so the call's traced peak stays
    below 67 MB (56 MB measured), a quarter of what an (N, 41) series and an
    (N, 41) product per atom took (280 MB)."""
    import tracemalloc

    profile, fam = equal_split(0.0, 2, 1), scalar_family([1.0, -1.0], pairwise_invertible=True)
    ball = Ball([0.0], 1.0)
    fs = [construct_atom(ball, AtomParams(1.0, 2.0, 0, PowerWeight(0.5), 1),
                         seed=s).function() for s in range(8)]
    side = np.geomspace(3.0, 1e4, 100_000)
    xs = np.concatenate([-side[::-1], side])
    tracemalloc.start()
    try:
        apply_T_ball_1d(fs, xs, profile, fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 67e6, peak


# ---------------------------------------------------------------------------
# near-field Gauss-Jacobi rule
# ---------------------------------------------------------------------------

NEAR_FIELD_KERNELS = {"thm1": (equal_split(0.0, 2, 1), (1.0, -1.0)),
                      "ta": (ExponentProfile(0.5, (0.25, 0.25), 1), (1.0, -1.0)),
                      "identity": (ExponentProfile(0.5, (0.5,), 1), (1.0,))}


def _mpmath_near(polys, lo, hi, center, radius, x, alphas, lams):
    """30-digit T p(x) on [lo, hi] for each coefficient list p in ``polys``
    (polynomials in (y - center) / radius).

    The support is cut at the preimages x / lam inside it and each piece at
    its midpoint.  Each half is integrated in the offset tau from its outer
    end E, so that no node rounds onto a preimage: in z with
    tau = delta (e^z - 1) where the nearest preimage beyond E is delta < the
    half's length away, and with w**q = tau (or z) where a preimage at E
    makes tau^(-a) dtau smooth in w.  The kernel values are shared by the
    polynomials."""
    with mpmath.workdps(30):
        X, c, r = mpmath.mpf(x), mpmath.mpf(center), mpmath.mpf(radius)
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        pre = [X / lam for lam in lams]
        marks = sorted({lo, hi} | {p for p in pre if lo < p < hi})
        totals = [mpmath.mpf(0)] * len(polys)
        for a, b in zip(marks[:-1], marks[1:]):
            half = (b - a) / 2
            for end, sign in ((a, 1), (b, -1)):
                gaps = [X - lam * end for lam in lams]
                at_end = sum(al for p, al in zip(pre, alphas) if p == end)
                q = Fraction(1 - at_end).limit_denominator(64).denominator
                delta = min((sign * (end - p) for p in pre if sign * (end - p) > 0),
                            default=mpmath.inf)
                if delta < half:
                    top = mpmath.log1p(half / delta)
                    tau = lambda z: delta * mpmath.expm1(z)          # noqa: E731
                    jac = lambda z: delta * mpmath.exp(z)            # noqa: E731
                else:
                    top = half
                    tau, jac = (lambda t: t), (lambda t: 1)
                first = min(top, 1)
                cache = {}

                def kern(s, end=end, sign=sign, gaps=gaps, tau=tau, jac=jac):
                    if s not in cache:
                        t = tau(s)
                        cache[s] = (end + sign * t, jac(s) * mpmath.fprod(
                            abs(g - lam * sign * t) ** -mpmath.mpf(al)
                            for g, lam, al in zip(gaps, lams, alphas)))
                    return cache[s]

                for i, coeffs in enumerate(polys):
                    def f(s, coeffs=coeffs):
                        y, k = kern(s)
                        return k * mpmath.polyval(coeffs[::-1], (y - c) / r)

                    part = mpmath.quad(lambda w: f(w**q) * q * w**(q - 1),
                                       [0, first ** (mpmath.mpf(1) / q)],
                                       method="gauss-legendre")
                    if top > first:
                        part += mpmath.quad(f, mpmath.linspace(first, top, int(top / 6) + 2),
                                            method="gauss-legendre")
                    totals[i] += part
        return [float(t) for t in totals]


@pytest.mark.parametrize("kernel", sorted(NEAR_FIELD_KERNELS))
def test_near_field_matches_mpmath(kernel):
    """Atoms of degree d = 0, 1, 2 at points one ulp and 1e-9 inside and
    outside each support endpoint, and at +-1e-9, where the preimages +-x
    nearly coincide: relative error <= 1e-13 against 30 digits, the README's
    bound."""
    profile, lams = NEAR_FIELD_KERNELS[kernel]
    fam = scalar_family(list(lams), pairwise_invertible=len(lams) > 1)
    center, radius = 0.25, 0.5
    lo, hi = center - radius, center + radius
    xs = [1e-9, -1e-9]
    for end in (lo, hi):
        xs += [np.nextafter(end, -1.0), np.nextafter(end, 1.0), end - 1e-9, end + 1e-9]
    xs = np.array(xs)
    atoms = [construct_atom(Ball([center], radius), AtomParams(1.0, 2.0, d, PowerWeight(0.5), 1),
                            seed=7).function() for d in (0, 1, 2)]
    polys = [[a.profile.coeffs.get((k,), 0.0) for k in range(1 + a.profile.degree())]
             for a in atoms]
    assert all(min(abs(x / lam - center) for lam in lams) < 3.0 * radius for x in xs)
    values = np.array([apply_T_batch(atom, xs[:, None], profile, fam) for atom in atoms])
    for i, x in enumerate(xs):
        refs = _mpmath_near(polys, lo, hi, center, radius, x, profile.alphas, lams)
        for d, ref in enumerate(refs):
            assert abs(values[d, i] - ref) <= 1e-13 * abs(ref), (kernel, d, x, values[d, i], ref)


@pytest.mark.parametrize("kernel", ["thm1", "ta"])
def test_shared_ball_rows_match_single_function_calls(kernel):
    """apply_T_ball_1d evaluates T once per ball for every function on it; each
    row is bit for bit apply_T_batch of that function alone, at near points
    (inside the support, one ulp from its ends, at 0 and +-1e-9) and far ones,
    for polynomial atoms of degree 0, 1, 2 and the indicator."""
    profile, lams = NEAR_FIELD_KERNELS[kernel]
    fam = scalar_family(list(lams), pairwise_invertible=True)
    ball = Ball([0.25], 0.5)
    fs = [construct_atom(ball, AtomParams(1.0, 2.0, d, PowerWeight(0.5), 1),
                         seed=13).function() for d in (0, 1, 2)]
    fs.insert(1, SampledFunction(ball, IndicatorProfile()))
    xs = np.concatenate([np.linspace(-0.6, 1.1, 41), [0.0, 1e-9, -1e-9],
                         [np.nextafter(e, s) for e in (-0.25, 0.75) for s in (-1.0, 1.0)],
                         np.geomspace(2.0, 1e4, 9), -np.geomspace(2.0, 1e4, 9)])
    far = np.array([all(abs(x / lam - 0.25) >= 1.5 for lam in lams) for x in xs])
    assert far.any() and not far.all()
    shared = apply_T_ball_1d(fs, xs, profile, fam)
    assert shared.shape == (len(fs), xs.size)
    for f, row in zip(fs, shared):
        alone = apply_T_batch(f, xs[:, None], profile, fam)
        assert row.tobytes() == alone.tobytes()


@pytest.mark.parametrize("kernel", ["thm1", "ta", "three-factor"])
def test_near_field_points_do_not_depend_on_their_batch(kernel):
    """Every near-field point is one group of the panel stage, and every
    far-field point builds its series and meets the moments elementwise, not
    in a BLAS product whose rounding depends on the other rows: 1,201 near
    and 1,994 far points in one call read bit for bit what one-point calls
    read, under two factors and under three of mixed sign and size."""
    profile, lams = {**NEAR_FIELD_KERNELS, "three-factor": THREE_FACTOR}[kernel]
    fam = scalar_family(list(lams), pairwise_invertible=True)
    atom = construct_atom(Ball([0.25], 0.5), AtomParams(1.0, 2.0, 2, PowerWeight(0.5), 1),
                          seed=17).function()
    near = np.linspace(-1.6, 1.6, 1201)
    assert all(min(abs(x / lam - 0.25) for lam in lams) < 1.5 for x in near)
    side = np.geomspace(2.0 * max(map(abs, lams)), 500.0, 997)
    far = np.concatenate([side, -side])
    assert all(min(abs(x / lam - 0.25) for lam in lams) >= 1.5 for x in far)
    xs = np.concatenate([near, far])
    batch = apply_T_batch(atom, xs[:, None], profile, fam)
    alone = np.concatenate([apply_T_batch(atom, np.array([[x]]), profile, fam) for x in xs])
    assert batch.tobytes() == alone.tobytes()


def test_near_field_builds_one_rule():
    """thm1-smoke's kernel (two exponents 1/2) builds one Gauss-Jacobi rule,
    for u**-1/2 at a preimage; every other panel is Gauss-Legendre."""
    from rieszkit.quadrature import gauss_jacobi

    profile, lams = NEAR_FIELD_KERNELS["thm1"]
    fam = scalar_family(list(lams), pairwise_invertible=True)
    gauss_jacobi.cache_clear()
    apply_T_ball_1d([indicator([0.25], 0.5)], np.linspace(-0.6, 1.1, 41), profile, fam)
    assert gauss_jacobi.cache_info().currsize == 1


def test_shared_ball_rule_needs_one_ball():
    prof = equal_split(0.0, 2, 1)
    fam = scalar_family([1.0, -1.0], pairwise_invertible=True)
    with pytest.raises(ValueError):
        apply_T_ball_1d([indicator([0.0], 1.0), indicator([0.0], 2.0)], np.array([3.0]),
                        prof, fam)


def test_polynomial_moments_match_the_fraction_sum():
    """The integer-arithmetic moments are bit for bit the Fraction sum rounded
    once, on 3,000 random coefficient sets on the line against u^k,
    k <= FAR_FIELD_ORDER (the far field's), and 300 on the disk against
    u^beta, |beta| <= 4 (pi as its float's exact ratio), with scales 1e-200
    to 1e200."""
    def fraction_moments(terms, betas, moment):
        exact = [(k, Fraction(c)) for k, c in terms]
        return np.array([float(sum((c * moment(*(i + j for i, j in zip(k, beta)))
                                    for k, c in exact), Fraction(0)))
                         for beta in betas])

    def line(g):
        return Fraction(0) if g % 2 else Fraction(2, g + 1)

    def disk(a, b):
        if a % 2 or b % 2:
            return Fraction(0)
        return Fraction(math.pi) * 2 * math.prod(range(a - 1, 0, -2)) * math.prod(
            range(b - 1, 0, -2)) / math.prod(range(a + b + 2, 0, -2))

    rng = np.random.default_rng(2024)
    cases = [(1, tuple((k,) for k in range(FAR_FIELD_ORDER + 1)), line)] * 3000 \
        + [(2, tuple(multiindices(2, 4)), disk)] * 300
    for n, betas, moment in cases:
        keys = multiindices(n, int(rng.integers(0, 6)))
        coeffs = rng.standard_normal(len(keys)) * 10.0 ** rng.uniform(-200, 200, len(keys))
        terms = tuple((k, float(c)) for k, c in zip(keys, coeffs) if rng.random() < 0.8)
        moments = _polynomial_moments.__wrapped__(terms, betas)
        assert moments.tobytes() == fraction_moments(terms, betas, moment).tobytes(), terms


def test_near_field_preimages_near_origin_stay_apart():
    """The zero-order kernel's preimages +-x do not merge however small x is:
    T chi_[0, 1](x) = pi/2 + acosh(1/x), and on [-1, 1] twice that, stay
    finite; only x = 0 itself merges them into a non-integrable |y|^-1."""
    prof = equal_split(0.0, 2, 1)
    fam = scalar_family([1.0, -1.0], pairwise_invertible=True)
    for x in (1e-13, 1e-200):
        exact = 0.5 * math.pi + math.acosh(1.0 / x)
        half, whole = (apply_T_batch(f, np.array([[x], [-x]]), prof, fam)
                       for f in (indicator([0.5], 0.5), indicator([0.0], 1.0)))
        assert abs(half[0] - exact) <= 1e-12 * exact
        assert np.all(np.abs(whole - 2.0 * exact) <= 2e-12 * exact)
    assert apply_T_batch(indicator([0.0], 1.0), np.array([[0.0]]), prof, fam)[0] == math.inf


def test_far_field_grid_profile_takes_cell_path(monkeypatch):
    import rieszkit.operators as ops

    calls = []
    cells = ops.integrate_ball
    monkeypatch.setattr(ops, "integrate_ball",
                        lambda *a, **k: calls.append(1) or cells(*a, **k))
    prof = equal_split(0.0, 2, 1)
    fam = scalar_family([1.0, -1.0], pairwise_invertible=True)
    ball = Ball([0.0], 1.0)
    x = np.array([[5.0]])
    grid = apply_T_batch(SampledFunction(ball, GridProfile(np.ones(64))), x, prof, fam)
    assert len(calls) == 1
    poly = apply_T_batch(SampledFunction(ball, PolynomialProfile({(0,): 1.0})), x, prof, fam)
    assert len(calls) == 1  # the polynomial profile took the multipole rule
    assert grid[0] == pytest.approx(poly[0], rel=1e-6)


@pytest.mark.parametrize("alpha, alphas, mats", [(0.0, (0.5, 0.5), [1.0, -1.0]),
                                                  (0.5, (0.5,), [1.0])])
def test_cell_profiles_on_the_line_match_cells_1d(alpha, alphas, mats):
    """Grid and callable profiles on the line take the shared integrate_ball
    loop; it gives the cell rule on the support's 2 * resolution cells bit
    for bit."""
    from rieszkit.operators import _kernel_rows, _kernel_singularities
    from rieszkit.quadrature import integrate_cells_1d

    prof = ExponentProfile(alpha, alphas, 1)
    fam = scalar_family(mats, pairwise_invertible=len(mats) > 1)
    ball = Ball([0.25], 1.5)
    scheme = QuadratureScheme(resolution=96)
    xs = np.array([[0.1], [-1.0], [1.75], [3.0], [np.nextafter(1.75, 2.0)]])
    edges = np.linspace(ball.center[0] - ball.radius, ball.center[0] + ball.radius,
                        2 * scheme.resolution + 1)
    for profile in (GridProfile(np.linspace(1.0, 2.0, 40)),
                    CallableProfile(lambda q: np.cos(q[:, 0]))):
        f = SampledFunction(ball, profile)
        got = apply_T_batch(f, xs, prof, fam, scheme)
        for x, v in zip(xs, got):
            sings = _kernel_singularities(x, prof, fam, ball)
            want = integrate_cells_1d(
                lambda ys: _kernel_rows(x[None, :], ys[:, None], prof, fam)[0]
                * f.eval(ys[:, None]), edges, sings)
            assert v == want


class _CellsCalled(Exception):
    pass


def test_near_field_routing(monkeypatch):
    """On the line, near points of polynomial and indicator profiles take the
    Gauss-Jacobi rule and never run cells; a GridProfile near point and a 2-D
    disk still do."""
    import rieszkit.operators as ops

    def refuse(*args, **kwargs):
        raise _CellsCalled

    monkeypatch.setattr(ops, "integrate_ball", refuse)
    prof = equal_split(0.0, 2, 1)
    fam = scalar_family([1.0, -1.0], pairwise_invertible=True)
    ball = Ball([0.0], 1.0)
    xs = np.array([[0.3], [-0.99], [1.5], [np.nextafter(1.0, 2.0)]])
    for profile in (PolynomialProfile({(0,): 1.0, (2,): -3.0}), IndicatorProfile()):
        vals = apply_T_batch(SampledFunction(ball, profile), xs, prof, fam)
        assert np.all(np.isfinite(vals))
    with pytest.raises(_CellsCalled):
        apply_T_batch(SampledFunction(ball, GridProfile(np.ones(64))), xs[:1], prof, fam)
    disk = indicator([0.0, 0.0], 1.0)
    riesz = ExponentProfile(1.0, (1.0,), 2)
    assert np.isfinite(apply_T_batch(disk, np.array([[0.5, 0.0]]), riesz, identity_family(2))[0])
    with pytest.raises(_CellsCalled):
        apply_T_batch(disk, np.array([[0.5, 0.0]]), riesz,
                      MatrixFamily((np.diag([1.0, 2.0]),)))


def _rotation(degrees):
    t = math.radians(degrees)
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def _mp_disk_integral(a, d, rho):
    """Integral of |s - y|^-a over a disk of radius rho, s at distance d from
    its center, to 30 digits: the elliptic closed form for a = 1, otherwise
    a quadrature over the direction theta of the ray from s, which meets the
    circle at d cos(theta) -+ sqrt(rho^2 - d^2 sin(theta)^2)."""
    with mpmath.workdps(30):
        d, rho = mpmath.mpf(d), mpmath.mpf(rho)
        if a == 1.0:
            if d <= rho:
                return 4 * rho * mpmath.ellipe((d / rho) ** 2)
            m = (rho / d) ** 2
            return 4 * d * (mpmath.ellipe(m) - (1 - m) * mpmath.ellipk(m))
        g = 2 - mpmath.mpf(a)

        def root(t):
            return mpmath.sqrt(max(rho ** 2 - (d * mpmath.sin(t)) ** 2, 0))

        def ray(t, sign):
            return max(d * mpmath.cos(t) + sign * root(t), 0) ** g

        # along each ray from s, r^(1-a) dr integrates to R^g / g
        if d <= rho:
            return 2 * mpmath.quad(lambda t: ray(t, 1), [0, mpmath.pi / 2, mpmath.pi]) / g
        return 2 * mpmath.quad(lambda t: ray(t, 1) - ray(t, -1),
                               [0, mpmath.asin(rho / d)]) / g


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("lam, mat", [(1.0, np.eye(2)), (2.0, 2.0 * _rotation(30.0)),
                                      (0.5, np.diag([0.5, -0.5]))])
def test_disk_indicator_matches_mpmath(a, lam, mat):
    """T of a disk's indicator under one kernel factor |x - A y|^-a with
    A = lambda times a rotation or reflection is |lambda|^-a times a radial
    integral, exact to 1e-12 relative at the centre, inside, one ulp either
    side of the circle, on it, and at 2.5 and 40 radii.  The preimages lie
    on the axis through the centre, so their distance to it is formed
    exactly, and the reference is taken at the preimage the program forms:
    near the circle the value is too steep in d for A^-1's rounding."""
    center, rho = np.array([2.0, 0.0]), 1.5
    f = indicator(center, rho)
    prof = ExponentProfile(2.0 - a, (a,), 2)
    fam = MatrixFamily((mat,))
    for t in (0.0, 0.4 * rho, np.nextafter(rho, 0.0), rho, np.nextafter(rho, 2.0),
              2.5 * rho, 40.0 * rho):
        x = (mat @ (center - np.array([t, 0.0])))[None, :]
        offset = center - x @ fam.inverses[0].T
        exact = lam ** -a * _mp_disk_integral(a, math.hypot(*offset[0]), rho)
        got = apply_T_batch(f, x, prof, fam)[0]
        assert abs(got - exact) <= 1e-12 * exact, (t, got, float(exact))


def test_disk_route_leaves_other_cases_to_cells():
    """Grid profiles, two-factor kernels and non-similarity matrices keep
    the cell rule on the disk, bit for bit."""
    import rieszkit.operators as ops
    from rieszkit.quadrature import integrate_ball

    ball = Ball([0.2, -0.1], 0.8)
    disk = SampledFunction(ball, IndicatorProfile())
    riesz = ExponentProfile(1.0, (1.0,), 2)
    cases = [(SampledFunction(ball, GridProfile(np.ones((16, 16)))), riesz, identity_family(2)),
             (disk, ExponentProfile(1.0, (0.5, 0.5), 2), MatrixFamily((np.eye(2), _rotation(30.0)))),
             (disk, riesz, MatrixFamily((np.diag([1.0, 2.0]),)))]
    scheme = QuadratureScheme(resolution=24)
    xs = np.array([[0.5, 0.3], [2.0, -1.0]])
    for f, prof, fam in cases:
        got = apply_T_batch(f, xs, prof, fam, scheme)
        for x, value in zip(xs, got):
            def fn(pts, x=x, f=f, prof=prof, fam=fam):
                return ops._kernel_rows(x[None, :], pts, prof, fam)[0] * f.eval(pts)

            assert value == integrate_ball(fn, ball, scheme,
                                           ops._kernel_singularities(x, prof, fam, ball))
