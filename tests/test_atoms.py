"""Atom admissibility, construction, validation, and campaign determinism."""

import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszkit import (AtomParams, AtomSampler, Ball, CallableProfile,
                      PolynomialProfile, PowerWeight, atom_class, atom_from_record,
                      construct_atom, critical_indices, read_atom_manifest,
                      sample_atom_campaign, validate_atom, write_atom_manifest)
from rieszkit.atoms import (MOMENT_REL_TOL, Atom, _monic_ball_polynomial, _p0_norm,
                            multiindices, polynomial_zeros, project_away_moments)
from rieszkit.config import MAX_DEGREE
from rieszkit.errors import DegenerateProfile
from rieszkit.operators import _polynomial_moments, _unit_ball_moment

UNIT = PowerWeight(0.0)


def _exact_ball_moment(gamma):
    """The integral of u^gamma over the unit ball as a Fraction, in units of
    pi on the disk."""
    if any(g % 2 for g in gamma):
        return Fraction(0)
    if len(gamma) == 1:
        return Fraction(2, gamma[0] + 1)
    a, b = gamma
    return Fraction(2 * math.prod(range(a - 1, 0, -2)) * math.prod(range(b - 1, 0, -2)),
                    math.prod(range(a + b + 2, 0, -2)))


def _exact_gram_projection(coeffs, d, n):
    """The L^2 projection of sum_k c_k u^k on the unit ball away from degree
    <= d in exact rationals: the monomial Gram system solved by Fraction
    elimination."""
    low = multiindices(n, d)
    rows = [[_exact_ball_moment(tuple(x + y for x, y in zip(a, b))) for b in low]
            + [sum(Fraction(c) * _exact_ball_moment(tuple(x + y for x, y in zip(a, k)))
                   for k, c in coeffs.items())] for a in low]
    for j in range(len(low)):
        for i in range(j + 1, len(low)):
            f = rows[i][j] / rows[j][j]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[j])]
    sol = [Fraction(0)] * len(low)
    for i in reversed(range(len(low))):
        sol[i] = (rows[i][-1] - sum(rows[i][m] * sol[m] for m in range(i + 1, len(low)))) \
            / rows[i][i]
    out = {k: Fraction(c) for k, c in coeffs.items()}
    for b, x in zip(low, sol):
        out[b] = out.get(b, Fraction(0)) - x
    return out


def test_unit_ball_monomial_integrals():
    """The monomial integrals over the unit ball are exact integer ratios
    (pi times one on the disk), and ``_polynomial_moments`` reads them."""
    assert _unit_ball_moment((0,)) == (2, 1) and _unit_ball_moment((2,)) == (2, 3)
    assert _unit_ball_moment((1,)) == _unit_ball_moment((2, 1)) == (0, 1)
    for gamma in [(0,), (2,), (10,), (0, 0), (2, 0), (4, 2), (16, 18)]:
        num, den = _unit_ball_moment(gamma)
        ref = math.exp(sum(math.lgamma((g + 1) / 2.0) for g in gamma)
                       - math.lgamma((sum(gamma) + len(gamma)) / 2.0 + 1.0))
        assert num / den == pytest.approx(ref, rel=1e-14)
    betas = ((0, 0), (2, 0), (1, 1))
    assert _polynomial_moments((((0, 0), 1.0),), betas).tolist() == [math.pi, math.pi / 4, 0.0]
    assert _polynomial_moments((((0,), 1.0),), ((0,), (2,))).tolist() == [2.0, 2.0 / 3.0]


def test_centred_moments_against_quadrature():
    """``validate_atom``'s moments, r^n times the unit-ball moments of the
    stored polynomial, are the integrals of ((y - c) / r)^beta a(y) over the
    ball, on the line and on a disk."""
    ball = Ball([0.3], 0.7)
    prof = PolynomialProfile({(0,): 1.0, (1,): -0.5, (2,): 2.0})
    xs = np.linspace(0.3 - 0.7, 0.3 + 0.7, 200001)
    mids = 0.5 * (xs[:-1] + xs[1:])
    vals = prof.eval(ball, mids[:, None]) * np.diff(xs)
    betas = ((0,), (1,), (2,))
    exact = 0.7 * _polynomial_moments(tuple(prof.coeffs.items()), betas)
    for beta, mom in zip(betas, exact):
        quad = float(np.sum(((mids - 0.3) / 0.7) ** beta[0] * vals))
        assert mom == pytest.approx(quad, abs=1e-9)
    disk = Ball([0.3, -0.2], 0.7)
    prof = PolynomialProfile({(0, 0): 1.0, (2, 0): -0.5, (1, 1): 2.0, (0, 2): 0.25})
    t, w = np.polynomial.legendre.leggauss(40)
    rad, ang = 0.5 * (1.0 + t), np.pi * (1.0 + t)
    u = np.stack([np.outer(rad, np.cos(ang)).ravel(), np.outer(rad, np.sin(ang)).ravel()], 1)
    wts = np.outer(0.5 * w * rad, np.pi * w).ravel()
    vals = prof.eval(Ball(np.zeros(2), 1.0), u) * wts
    betas = ((0, 0), (1, 0), (2, 0), (1, 1), (0, 2))
    exact = 0.49 * _polynomial_moments(tuple(prof.coeffs.items()), betas)
    for beta, mom in zip(betas, exact):
        quad = 0.49 * float(np.sum(u[:, 0] ** beta[0] * u[:, 1] ** beta[1] * vals))
        assert mom == pytest.approx(quad, rel=1e-13)


def test_monic_ball_polynomials():
    """V_alpha is monic and orthogonal to every monomial of lower degree, in
    exact rationals on its rounded coefficients to 1e-15; on the line it is
    the monic Legendre polynomial."""
    assert dict(_monic_ball_polynomial((2,))) == {(2,): 1.0, (0,): -1.0 / 3.0}
    assert dict(_monic_ball_polynomial((4,))) == pytest.approx(
        {(4,): 1.0, (2,): -6.0 / 7.0, (0,): 3.0 / 35.0}, rel=1e-15)
    for n in (1, 2):
        for alpha in multiindices(n, 12):
            terms = dict(_monic_ball_polynomial(alpha))
            assert terms[alpha] == 1.0 and all(sum(k) < sum(alpha) for k in terms
                                                if k != alpha)
            size = sum(abs(Fraction(c)) for c in terms.values())
            for beta in multiindices(n, sum(alpha) - 1):
                inner = sum(Fraction(c) * _exact_ball_moment(tuple(x + y for x, y in
                                                                  zip(k, beta)))
                            for k, c in terms.items())
                assert abs(inner) <= 1e-15 * size


def test_projection_annihilates_low_degree():
    """A polynomial of degree <= d projects to exactly zero."""
    for n in (1, 2):
        coeffs = {k: 1.0 - sum(k) for k in multiindices(n, 3)}
        assert set(project_away_moments(coeffs, 3, n).values()) == {0.0}


def test_projection_idempotent():
    """The projection reads only the coefficients of degree d + 1 and d + 2,
    so a second projection returns the first bit for bit."""
    rng = np.random.default_rng(5)
    for n in (1, 2):
        coeffs = {k: rng.uniform(-1, 1) for k in multiindices(n, 5)}
        once = project_away_moments(coeffs, 3, n)
        assert project_away_moments(once, 3, n) == once


@pytest.mark.parametrize("n", [1, 2])
def test_closed_form_matches_the_exact_gram_projection(n):
    """For degrees 0 to 8 in both dimensions the closed form agrees with the
    monomial Gram projection solved in exact rationals to 1e-14 of the
    largest coefficient, on 5 seeded draws per degree."""
    for d in range(9):
        for seed in range(5):
            rng = np.random.default_rng(100 * d + seed)
            coeffs = {k: rng.uniform(-1.0, 1.0) for k in multiindices(n, d + 2)}
            got = project_away_moments(coeffs, d, n)
            ref = _exact_gram_projection(coeffs, d, n)
            assert got.keys() == ref.keys()
            big = max(abs(v) for v in ref.values())
            assert max(abs(Fraction(got[k]) - v) for k, v in ref.items()) <= 1e-14 * big


def test_projection_at_degree_zero_subtracts_the_mean():
    """At d = 0 only V_alpha of degree 2 carry a constant: -1/3 on the line
    and -1/4 on the disk, so the constant is -m_2 / 3 and -(m_20 + m_02) / 4,
    bit for bit."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        line = {k: rng.uniform(-1.0, 1.0) for k in multiindices(1, 2)}
        assert project_away_moments(line, 0, 1)[(0,)] == line[(2,)] * (-1.0 / 3.0)
        disk = {k: rng.uniform(-1.0, 1.0) for k in multiindices(2, 2)}
        assert project_away_moments(disk, 0, 2)[(0, 0)] == \
            disk[(2, 0)] * -0.25 + disk[(0, 2)] * -0.25


@pytest.mark.parametrize("n", [1, 2])
def test_constructed_atoms_clear_their_moments_up_to_the_cap(n):
    """Every atom built at degrees 0 to ``config.MAX_DEGREE`` has exact
    centred moments within MOMENT_REL_TOL of its L^2 norm on the unit
    ball (a far-off-centre ball gives the same polynomial)."""
    unit = Ball(np.zeros(n), 1.0)
    for d in range(MAX_DEGREE + 1):
        params = AtomParams(1.0, 2.0, d, PowerWeight(0.0, n), n)
        betas = tuple(multiindices(n, d))
        for seed in range(3):
            atom = construct_atom(Ball(np.full(n, 1e3), 1.0), params, seed)
            moments = _polynomial_moments(tuple(atom.profile.coeffs.items()), betas)
            norm = _p0_norm(atom.profile, unit, 2.0)
            assert np.max(np.abs(moments)) <= MOMENT_REL_TOL * norm, (d, seed)


def test_admissible_params_examples():
    """``atom_class`` on power weights: the A_infinity audit passes, and
    without a given degree the degree is the least one."""
    audit, p0_lower, d_min, d = atom_class(UNIT, 1.0, None)
    assert audit.passed and p0_lower == 1.0 and d_min == d == 0
    _, p0_lower, d_min, _ = atom_class(PowerWeight(0.5), 1.0, None)
    assert p0_lower == 1.0 and d_min == 0
    _, p0_lower, d_min, _ = atom_class(PowerWeight(-0.125), 0.75, None)
    assert p0_lower == pytest.approx(1.0)
    assert d_min == 0
    # smaller p forces moments: q_critical = 1.5 and p = 0.6 gives d >= 1
    _, _, d_min, d = atom_class(PowerWeight(0.5), 0.6, 0)
    assert d_min == math.floor(1.5 / 0.6 - 1.0) and d == 0


@pytest.mark.parametrize("a, p, d_min", [(0.5, 0.75, 1), (0.5, 0.7499, 1), (0.5, 0.749, 1),
                                         (0.5, 0.5, 2), (2.5, 0.875, 3)])
def test_degree_is_the_theory_degree(a, p, d_min):
    """|x|^a has q_w = 1 + a, so d_min = floor((1 + a)/p - 1).  The old
    bisection read q_w from a bracket midpoint below 1 + a, which derived
    one degree less at the last four rows."""
    assert atom_class(PowerWeight(a), p, None)[2:] == (d_min, d_min)


def test_degree_is_exact_on_the_float_inputs():
    """d_min = floor(n (q_w/p - 1)) is taken in integers from the floats q_w
    and p, and q_w is rounded up from the exponent, so on a grid of (a, p),
    on the line and in the plane, no cell derives less than the exact degree
    of its float exponent; float division gives another floor in hundreds
    of these cells."""
    from fractions import Fraction

    float_misses = 0
    for n in (1, 2):
        for a in np.round(np.arange(-0.9, 4.0, 0.1), 1):
            w = PowerWeight(float(a), n)
            q = critical_indices(w).q_critical
            q_exact = max(Fraction(1), 1 + Fraction(float(a)) / n)
            assert q >= q_exact
            for p in np.round(np.arange(0.05, 1.0001, 0.01), 2):
                p = float(p)
                d_min = atom_class(w, p, 0)[2]
                assert d_min == math.floor(n * (Fraction(q) / Fraction(p) - 1)), (a, p)
                assert d_min >= math.floor(n * (q_exact / Fraction(p) - 1)), (a, p)
                float_misses += d_min != math.floor(n * (q / p - 1.0))
    assert float_misses > 100


def test_sign_profile_is_extremal_atom():
    """c u on B(0, 1) with c = sqrt(3/2) / sqrt(2) saturates the size bound
    1 / sqrt(2) at p = 1, p0 = 2: its L^2 norm is c sqrt(2/3)."""
    params = AtomParams(1.0, 2.0, 0, UNIT, 1)
    ball = Ball([0.0], 1.0)
    atom = Atom(ball, PolynomialProfile({(1,): math.sqrt(1.5) / math.sqrt(2.0)}), params)
    rep = validate_atom(atom)
    assert rep.passed
    assert rep.norm == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-15)
    assert abs(rep.size_margin) < 1e-15


def test_scaled_profile_fails_size_bound():
    params = AtomParams(1.0, 2.0, 0, UNIT, 1)
    atom = Atom(Ball([0.0], 1.0), PolynomialProfile({(1,): math.sqrt(1.5)}), params)
    rep = validate_atom(atom)
    assert not rep.passed and not rep.size_ok


def test_constant_profile_fails_moments():
    params = AtomParams(1.0, 2.0, 0, UNIT, 1)
    atom = Atom(Ball([0.0], 1.0), PolynomialProfile({(0,): 0.5}), params)
    rep = validate_atom(atom)
    assert not rep.passed and not rep.moments_ok and rep.size_ok


def test_an_atom_is_a_polynomial():
    """An atom holds a PolynomialProfile; any other profile is refused."""
    params = AtomParams(1.0, 2.0, 0, UNIT, 1)
    with pytest.raises(TypeError, match="PolynomialProfile"):
        Atom(Ball([0.0], 1.0), CallableProfile(lambda pts: np.sign(pts[:, 0])), params)


def test_construct_atom_validates():
    params = AtomParams(1.0, 2.0, 0, PowerWeight(0.5), 1)
    atom = construct_atom(Ball([0.0], 1.0), params, seed=42)
    rep = validate_atom(atom)
    assert rep.passed
    assert abs(rep.size_margin) < 1e-8


def test_construct_atom_higher_moments():
    params = AtomParams(1.0, 2.0, 1, UNIT, 1)
    atom = construct_atom(Ball([0.5], 2.0), params, seed=7)
    rep = validate_atom(atom)
    assert rep.passed
    assert all(m < 1.0 for m in rep.moment_margins.values())
    assert set(rep.moment_margins) == {(0,), (1,)}


@pytest.mark.parametrize("p, d, radius", [(1.0, 0, 1e-300), (0.5, 1, 1e-110)])
def test_size_bound_of_a_degenerate_ball_is_refused(p, d, radius):
    """|B|^{1/p0} w(B)^{-1/p} must be a positive finite float.  For
    |x|^{1/2}, w(B) underflows to 0 at radius 1e-300, and at radius 1e-110
    w(B) ~ 1.3e-165 is positive but w(B)^{-2} overflows: either is a
    degenerate atom, never a ZeroDivisionError or an OverflowError."""
    params = AtomParams(p, 2.0, d, PowerWeight(0.5), 1)
    with pytest.raises(DegenerateProfile, match="size bound"):
        construct_atom(Ball([0.0], radius), params, 0)


def test_atom_params_validation():
    with pytest.raises(ValueError):
        AtomParams(1.5, 2.0, 0, UNIT, 1)
    with pytest.raises(ValueError):
        AtomParams(1.0, math.inf, 0, UNIT, 1)
    with pytest.raises(ValueError):
        AtomParams(1.0, 2.0, -1, UNIT, 1)


def test_scale_covariance_unit_weight():
    """lambda^{n/p} a(lambda y) is a valid atom on B(0, 1/lambda)."""
    params = AtomParams(1.0, 2.0, 0, UNIT, 1)
    atom = construct_atom(Ball([0.0], 1.0), params, seed=11)
    for lam in (0.5, 2.0):
        # the centered scaled profile transfers unchanged to the shrunken ball
        scaled = Atom(Ball([0.0], 1.0 / lam), atom.profile.scaled(lam ** (1.0 / params.p)),
                      params)
        rep = validate_atom(scaled)
        assert rep.passed
        assert abs(rep.size_margin) < 1e-8


def test_campaign_determinism_and_validity():
    params = AtomParams(1.0, 2.0, 0, PowerWeight(0.5), 1)
    sampler = AtomSampler((np.array([0.0]), np.array([1.0])), (0.25, 1.0, 4.0))
    a = sample_atom_campaign(params, sampler, 12, seed=99)
    b = sample_atom_campaign(params, sampler, 12, seed=99)
    assert all(x.profile.coeffs == y.profile.coeffs for x, y in zip(a, b))
    assert all(validate_atom(x).passed for x in a)
    # a single draw reproduces construct_atom under the derived seed
    from rieszkit.atoms import derive_seed

    single = construct_atom(sampler.ball(0), params, derive_seed(99, 0, 0))
    assert single.profile.coeffs == a[0].profile.coeffs


def test_manifest_roundtrip(tmp_path):
    params = AtomParams(0.75, 1.5, 0, PowerWeight(-0.125), 1)
    sampler = AtomSampler((np.array([0.0]),), (0.5, 1.0, 2.0, 4.0))
    atoms = sample_atom_campaign(params, sampler, 4, seed=3)
    path = tmp_path / "atoms.jsonl"
    write_atom_manifest(atoms, path)
    back = read_atom_manifest(path)
    assert len(back) == 4
    for x, y in zip(atoms, back):
        assert x.profile.coeffs == y.profile.coeffs
        assert x.params.p0 == y.params.p0
        assert validate_atom(y).passed
    # records are plain JSON
    rec = json.loads(path.read_text().splitlines()[0])
    assert atom_from_record(rec).seed == atoms[0].seed


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_construct_atom_seed_sweep(seed):
    params = AtomParams(1.0, 2.0, 0, PowerWeight(0.5), 1)
    atom = construct_atom(Ball([1.0], 0.5), params, seed)
    assert validate_atom(atom).passed


# ---------------------------------------------------------------------------
# exact p0 norms
# ---------------------------------------------------------------------------


def _mp_real_zeros(c):
    """The real zeros in (-1, 1) of the polynomial with mpf coefficients c,
    highest degree first."""
    if len(c) < 2:
        return []
    zeros = mpmath.polyroots(c, maxsteps=200, extraprec=60)
    return [mpmath.re(z) for z in zeros
            if abs(mpmath.im(z)) < mpmath.mpf(10) ** -20 and -1 < mpmath.re(z) < 1]


def _mp_line_norm(coeffs, p0, radius, dps=30):
    """||a||_{p0} over an interval of radius ``radius`` for a = sum_k
    coeffs[k] u^k in ``dps``-digit mpmath, on the pieces of [-1, 1] between
    the real zeros of a, found at that precision: at p0 = 2 and 3 from the
    exact integrals of a^2 and a^3 (a has one sign on each piece), otherwise
    by tanh-sinh with the integrand scaled by a value near its largest (an
    unscaled |a|^p0 as small as 1e-39 would meet the quadrature's absolute
    tolerance early)."""
    with mpmath.workdps(dps):
        c = [mpmath.mpf(x) for x in coeffs]
        zeros = _mp_real_zeros(c[::-1]) if p0 != 2.0 else []
        marks = sorted({mpmath.mpf(-1), mpmath.mpf(1), *zeros})
        if p0 in (2.0, 3.0):
            power = [mpmath.mpf(1)]
            for _ in range(int(p0)):
                power = [mpmath.fsum(power[j] * c[k - j] for j in range(len(power))
                                     if 0 <= k - j < len(c))
                         for k in range(len(power) + len(c) - 1)]
            primitive = [0] + [ck / (k + 1) for k, ck in enumerate(power)]
            ends = [mpmath.polyval(primitive[::-1], u) for u in marks]
            val = mpmath.fsum(abs(hi - lo) for lo, hi in zip(ends, ends[1:]))
        else:
            top = max(abs(mpmath.polyval(c[::-1], u)) for u in [*marks, 0])
            val = top ** p0 * mpmath.quad(
                lambda u: (abs(mpmath.polyval(c[::-1], u)) / top) ** p0, marks)
        return (radius * val) ** (1 / mpmath.mpf(p0))


@pytest.mark.parametrize("p0", [1.01, 1.5, 2.0, 3.0, 7.3])
def test_line_norms_match_mpmath(p0):
    """``validate_atom`` reads the p0 norm of every atom that
    ``construct_atom`` builds on the line within 1e-12 of 30-digit mpmath,
    for moment degrees 0 to 7 and 20 seeds each, and within 1e-11 of
    40-digit mpmath, whose pieces end at zeros found to 40 digits, for one
    seed at each degree from 8 to ``config.MAX_DEGREE``.  Each of them
    saturates its size bound to 1e-12 up to degree 7 and to 1e-10 above:
    scaling the stored monomial coefficients rounds them, which moves the
    exact norm of a degree-18 atom by up to 1.4e-11."""
    ball = Ball([0.3], 0.7)
    worst = {30: 0.0, 40: 0.0}
    for d in range(MAX_DEGREE + 1):
        params = AtomParams(1.0, p0, d, UNIT, 1)
        dps, saturated = (30, 1e-12) if d < 8 else (40, 1e-10)
        for seed in range(20) if d < 8 else [d]:
            atom = construct_atom(ball, params, seed)
            rep = validate_atom(atom)
            assert rep.passed and abs(rep.size_margin) <= saturated
            coeffs = [atom.profile.coeffs.get((k,), 0.0) for k in range(d + 3)]
            ref = _mp_line_norm(coeffs, p0, 0.7, dps)
            worst[dps] = max(worst[dps], abs(float((rep.norm - ref) / ref)))
    assert worst[30] <= 1e-12 and worst[40] <= 1e-11


def test_plane_l2_norms_match_mpmath():
    """At p0 = 2 the norm of every atom ``construct_atom`` builds on a disk,
    degrees 0 to 7, is within 1e-13 of 30-digit mpmath, which sums the
    exact monomial integrals of a^2 over the unit disk."""
    ball = Ball([0.3, -0.2], 0.7)
    for d in range(8):
        params = AtomParams(1.0, 2.0, d, PowerWeight(0.0, 2), 2)
        for seed in range(4):
            atom = construct_atom(ball, params, seed)
            rep = validate_atom(atom)
            assert rep.passed and abs(rep.size_margin) <= 1e-12
            with mpmath.workdps(30):
                moments = {}
                for a, ca in atom.profile.coeffs.items():
                    for b, cb in atom.profile.coeffs.items():
                        g = (a[0] + b[0], a[1] + b[1])
                        moments[g] = moments.get(g, 0) + mpmath.mpf(ca) * cb
                square = mpmath.fsum(
                    m * mpmath.gamma((g[0] + 1) / mpmath.mpf(2))
                    * mpmath.gamma((g[1] + 1) / mpmath.mpf(2)) / mpmath.gamma(sum(g) / 2 + 2)
                    for g, m in moments.items() if g[0] % 2 == g[1] % 2 == 0)
                ref = mpmath.sqrt(square * mpmath.mpf(0.7) ** 2)
                assert abs(rep.norm - ref) <= 1e-13 * ref


def test_atoms_read_no_cells(monkeypatch):
    """With every cell rule of ``quadrature`` raising, atoms are built,
    validated and sampled on the line at every p0 of the mpmath test and in
    the plane at p0 = 2: their norms and moments read no cell."""
    import rieszkit.quadrature as quadrature

    def cells(*args, **kwargs):
        raise AssertionError("a cell rule ran")

    for name in ("integrate_ball", "integrate_cells_1d", "integrate_disk"):
        monkeypatch.setattr(quadrature, name, cells)
    cases = [(1, p0) for p0 in (1.01, 1.5, 2.0, 3.0, 7.3)] + [(2, 2.0)]
    for n, p0 in cases:
        params = AtomParams(1.0, p0, 1, PowerWeight(0.5, n), n)
        sampler = AtomSampler((np.zeros(n), np.full(n, 1.0)), (0.5, 2.0))
        atoms = sample_atom_campaign(params, sampler, 4, seed=5)
        atoms.append(construct_atom(Ball(np.zeros(n), 1.0), params, 9))
        assert all(validate_atom(atom).passed for atom in atoms)


def test_polynomial_zeros_are_backward_stable():
    """Aberth-Ehrlich iteration finds every zero of the atoms' polynomials,
    degrees 2 to ``config.MAX_DEGREE`` + 2, to a residual within 1e-14 of
    sum_k |c_k| |z|^k; a polynomial's real zeros come back real, and a
    constant has none."""
    for d in range(MAX_DEGREE + 1):
        for seed in range(25):
            rng = np.random.default_rng(1000 * d + seed)
            raw = {k: rng.uniform(-1.0, 1.0) for k in multiindices(1, d + 2)}
            c = np.array([project_away_moments(raw, d, 1)[(k,)] for k in range(d + 3)])
            zeros = polynomial_zeros(c)
            assert zeros.size == d + 2
            residual = np.abs(np.polyval(c[::-1], zeros))
            assert np.all(residual <= 1e-14 * np.polyval(np.abs(c[::-1]), np.abs(zeros)))
    # (u - 1/2)(u + 1/4)(u^2 + 1): two real zeros and a pair at +-i
    zeros = polynomial_zeros(np.polynomial.polynomial.polyfromroots([0.5, -0.25, 1j, -1j]).real)
    assert sorted(z.real for z in zeros if z.imag == 0.0) == pytest.approx([-0.25, 0.5])
    assert sorted(z.imag for z in zeros if z.imag != 0.0) == pytest.approx([-1.0, 1.0])
    assert polynomial_zeros([3.0]).size == 0
