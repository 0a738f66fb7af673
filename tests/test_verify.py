"""Verification-harness checks: pointwise bounds, chains, campaigns, audits."""

import hashlib
import json
import math
import os

import mpmath
import numpy as np
import pytest

from rieszkit import (AtomParams, Ball, CampaignSpec, ExponentProfile,
                      HypothesisFailed, MisclassifiedSample, PowerWeight,
                      check_critical_index_chains, check_maximal_inequalities,
                      check_pointwise_atom_bound, check_rh_ball_inequality,
                      construct_atom, equal_split, identity_family,
                      run_theorem_campaign, scalar_family)
from rieszkit.config import MAX_DEGREE, load_config
from rieszkit.line_integral import log_line_integral
from rieszkit.operators import (SampledFunction, fractional_maximal, hl_maximal,
                                indicator_maximal_1d)
from rieszkit.quadrature import LogPowerProfile, PowerProfile
from rieszkit.verify import config_hash
from rieszkit.weights import (LogExampleWeight, ProductPowerWeight, RegularGrid,
                              TabulatedWeight, weight_to_dict)

UNIT = PowerWeight(0.0)

SMALL_SPEC = CampaignSpec(count=4, seed=17, centers=((0.0,), (1.0,)),
                          radii=(0.5, 2.0), p=1.0, p0=2.0, outer_octaves=6,
                          inner_resolution=128, outer_resolution=32)


# ---------------------------------------------------------------------------
# the NaN-aware sup and inf
# ---------------------------------------------------------------------------


def test_nan_is_the_worst_value_and_its_sample_the_witness():
    """Python's max and min skip a NaN, so ``_worst`` returns the first one."""
    from rieszkit.verify import _worst

    assert _worst([1.0, math.nan, 3.0, math.nan]) == 1
    assert _worst([1.0, math.nan, 0.5], lowest=True) == 1
    assert _worst([2.0, 0.5, 3.0], lowest=True) == 1 and _worst([]) is None


# ---------------------------------------------------------------------------
# reverse Holder ball inequality
# ---------------------------------------------------------------------------


def test_rh_ball_unit_weight_is_equality(small_family):
    rep = check_rh_ball_inequality(UNIT, 1.0, 0.5, small_family)
    assert rep.passed()
    assert abs(rep.worst) < 1e-8
    assert abs(rep.extras["max_slack"]) < 1e-8


def test_rh_ball_weighted_configurations(small_family):
    rep = check_rh_ball_inequality(PowerWeight(-0.125), 0.75, 0.5, small_family)
    assert rep.passed()
    assert rep.worst >= -1e-10
    assert rep.extras["max_slack"] > 1e-3
    rep = check_rh_ball_inequality(PowerWeight(0.25), 1.0, 0.5, small_family)
    assert rep.passed()
    assert rep.extras["max_slack"] > 1e-3


def test_rh_ball_hypothesis_failure_raises(small_family):
    # w^p = |x|^{-0.75} fails RH_{q/p} when (q/p) * 0.75 >= 1
    with pytest.raises(HypothesisFailed) as err:
        check_rh_ball_inequality(PowerWeight(-0.75), 1.0, 0.75, small_family)
    assert err.value.item == "w^p in RH_4"
    assert err.value.detail == ("w^4 has the factor PowerProfile(-3.0, 0.0) at [0.0], which "
                                "is not locally integrable in dimension 1")


# ---------------------------------------------------------------------------
# critical-index chains
# ---------------------------------------------------------------------------


def test_chain_two_sided(small_family):
    rep = check_critical_index_chains(PowerWeight(-0.125), 0.5, None, small_family)
    assert rep.passed()
    assert rep.extras["indices"] == {"r_w": 8.0, "r_wp": 16.0}
    assert rep.extras["slack"] == pytest.approx(8e-12)


def test_chain_comparison(small_family):
    rep = check_critical_index_chains(PowerWeight(-0.125), 0.5, 1.0, small_family)
    assert rep.passed()
    assert rep.extras["indices"]["r_wq"] == 8.0


def test_chain_vacuous_for_unit_weight(small_family):
    rep = check_critical_index_chains(UNIT, 0.5, None, small_family)
    assert rep.passed()
    assert rep.extras["indices"]["r_w"] == math.inf


def test_chain_hypothesis_gate(small_family):
    # w^{1/p} = |x|^{2.4} is far from A_1, so the check must not run
    with pytest.raises(HypothesisFailed) as err:
        check_critical_index_chains(PowerWeight(0.6), 0.25, None, small_family)
    assert err.value.item == "w^{1/p} in A_1"
    assert err.value.detail == "w vanishes at [0.0]"


# ---------------------------------------------------------------------------
# pointwise atom bound
# ---------------------------------------------------------------------------


def test_pointwise_bound_identity_case():
    params = AtomParams(1.0, 2.0, 0, UNIT, 1)
    prof = ExponentProfile(0.5, (0.5,), 1)
    rep = check_pointwise_atom_bound(params, prof, identity_family(1), [0.0], seed=3)
    assert rep.passed()
    assert math.isfinite(rep.worst) and rep.worst > 0
    assert rep.stability["drift_radii"] < 4.0
    lo, hi = rep.extras["form_agreement"]["min"], rep.extras["form_agreement"]["max"]
    assert 1e-2 < lo <= hi < 1e2


def test_pointwise_bound_witnesses_reassert():
    """The stored witnesses re-certify lhs <= C* rhs for both bound forms."""
    params = AtomParams(1.0, 2.0, 0, UNIT, 1)
    prof = ExponentProfile(0.5, (0.25, 0.25), 1)
    rep = check_pointwise_atom_bound(params, prof, scalar_family([1.0, -1.0]),
                                     [0.0], seed=3)
    assert rep.passed()
    cstar = rep.worst
    for row in rep.witnesses:
        rhs = row["rhs_maximal"] if row["rhs_maximal"] is not None else row["rhs_decay"]
        assert row["lhs"] <= cstar * rhs * (1 + 1e-9)
        assert row["lhs"] <= max(cstar, 1.0) * row["rhs_decay"] * (1 + 1e-9) * 10


def test_pointwise_bound_zero_order():
    params = AtomParams(1.0, 2.0, 0, PowerWeight(0.5), 1)
    prof = equal_split(0.0, 2, 1)
    fam = scalar_family([1.0, -1.0], pairwise_invertible=True)
    rep = check_pointwise_atom_bound(params, prof, fam, [0.0], seed=5)
    assert rep.passed()
    assert "form_agreement" not in rep.extras  # decay form only at order zero


def test_pointwise_rhs_logarithms_match_the_products():
    """At moderate radii the right-hand sides formed from logarithms equal
    the products w(B)^{-1/p} r^{n+d+1} |x - A_k x0|^{alpha-n-d-1} and
    w(B)^{-1/p} (M_beta chi_B)^{(n+d+1)/n} to rounding, for a whole sample
    set at once."""
    from rieszkit.weights import weighted_measure

    params = AtomParams(1.0, 2.0, 0, PowerWeight(-0.125), 1)
    prof = ExponentProfile(0.5, (0.25, 0.25), 1)
    fam = scalar_family([1.0, -1.0])
    for center, radius in ((0.3, 0.25), (0.0, 4.0)):
        ball = Ball([center], radius)
        w_ball = weighted_measure(params.weight, 1.0, ball)
        rows = check_pointwise_atom_bound(params, prof, fam, [center], radii=(radius,),
                                          seed=0).witnesses
        x = np.array([row["x"][0] for row in rows])
        k = [row["region"] for row in rows]
        dist = np.abs(x - np.array([fam.apply(j, ball.center)[0] for j in k]))
        decay, maximal = (np.array([row[key] for row in rows])
                          for key in ("rhs_decay", "rhs_maximal"))
        assert decay == pytest.approx(radius ** 2 * dist ** -1.5 / w_ball, rel=1e-13)
        mval = indicator_maximal_1d(ball, [fam.apply_inverse(j, [v])[0] for j, v in zip(k, x)],
                                    0.25)
        assert maximal == pytest.approx(mval ** 2 / w_ball, rel=1e-13)


def _bundled_pointwise():
    """The check of ``configs/pointwise-off-centre.json`` and its arguments."""
    from rieszkit.cli import _atom_params_from

    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                   "pointwise-off-centre.json"))
    item = cfg.checks[0]
    params, audits = _atom_params_from(cfg)
    return cfg, item, params, lambda: check_pointwise_atom_bound(
        params, cfg.exponents, cfg.matrices, item["center"], radii=item["radii"],
        seed=item["seed"], audits=audits)


def test_pointwise_bound_evaluates_each_sample_set_at_once(monkeypatch):
    """The bundled check calls ``apply_T_batch`` once per (radius, refinement),
    on every point of that set, and labels points only through
    ``classify_batch``."""
    import rieszkit.geometry as geometry
    import rieszkit.verify as verify

    cfg, item, _, run = _bundled_pointwise()
    calls = []
    batch = verify.apply_T_batch
    monkeypatch.setattr(verify, "apply_T_batch",
                        lambda f, xs, *rest: calls.append(
                            (f.ball.radius, np.asarray(xs).shape)) or batch(f, xs, *rest))
    monkeypatch.setattr(geometry, "classify", None)
    assert run().passed()
    sizes = [(r, (len(verify.outer_sample_points(Ball(item["center"], r), cfg.matrices,
                                                 refine=refine)), 1))
             for r in item["radii"] for refine in (1, 2)]
    assert calls == sizes and len(calls) == 6


def test_pointwise_batch_matches_a_point_by_point_evaluation():
    """Each value of the bundled report is within 4 ulp of the same value
    formed one point at a time: T a(x) by a one-point ``apply_T_batch``,
    the right-hand sides from ``math`` logarithms."""
    from rieszkit.operators import apply_T_batch
    from rieszkit.verify import outer_sample_points
    from rieszkit.weights import weighted_measure

    cfg, item, params, run = _bundled_pointwise()
    rep = run()
    prof, fam, e = cfg.exponents, cfg.matrices, params.d + 2
    rows = iter(rep.witnesses)
    for r in item["radii"]:
        ball = Ball(item["center"], r)
        fn = construct_atom(ball, params, item["seed"]).function()
        log_wfac = -math.log(weighted_measure(params.weight, 1.0, ball)) / params.p
        for x in outer_sample_points(ball, fam):
            row = next(rows)
            k = row["region"]
            assert row["radius"] == r and row["x"] == x.tolist()
            lhs = abs(float(apply_T_batch(fn, [x], prof, fam, cfg.quadrature)[0]))
            dist = abs(x[0] - fam.apply(k, ball.center)[0])
            decay = math.exp(log_wfac + e * math.log(r) + (prof.alpha - e) * math.log(dist))
            mval = indicator_maximal_1d(ball, fam.apply_inverse(k, x), prof.alpha / e)[0]
            maximal = math.exp(log_wfac + e * math.log(mval))
            for got, want in ((row["lhs"], lhs), (row["rhs_decay"], decay),
                              (row["rhs_maximal"], maximal), (row["ratio"], lhs / maximal)):
                assert abs(got - want) <= 4 * np.spacing(want), (row, want)
    assert next(rows, None) is None


def test_pointwise_bound_rejects_inner_samples():
    params = AtomParams(1.0, 2.0, 0, UNIT, 1)
    prof = ExponentProfile(0.5, (0.5,), 1)
    with pytest.raises(MisclassifiedSample):
        check_pointwise_atom_bound(params, prof, identity_family(1), [0.0], seed=3,
                                   radii=(1.0,), samples=[[0.5]])


# ---------------------------------------------------------------------------
# whole-line integrals of radial profiles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a, b", [(0.5, -0.3), (-0.9, 0.7), (0.0, 0.0), (2.5, -0.99),
                                  (-0.5, -0.5)])
def test_line_integral_of_a_beta_kernel(a, b):
    """The integral of x^a (1 - x)^b over [0, 1] is B(a + 1, b + 1): each
    end is a mark whose panel takes the Gauss-Jacobi rule of its exponent,
    and halving every panel moves nothing."""
    exact = math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
    for value in log_line_integral([(0.0, PowerProfile(a)), (1.0, PowerProfile(b))],
                                   0.0, 1.0):
        assert value == pytest.approx(exact, abs=1e-14)


@pytest.mark.parametrize("g", [-1.5, -2.0, -1.01, -3.7, -1.0, -0.5])
def test_line_integral_to_infinity(g):
    """The integral of x^g over [1, inf) is 1 / (-g - 1) for g < -1, through
    the map x = 1 + (1 - t) / t of the infinite end, and +inf for g >= -1,
    where the exponent at infinity makes it diverge."""
    got = log_line_integral([(0.0, PowerProfile(g))], 1.0, math.inf)
    if g >= -1.0:
        assert got == (math.inf, math.inf)
    else:
        for value in got:
            assert value == pytest.approx(-math.log(-g - 1.0), abs=1e-14)
    left = log_line_integral([(0.0, PowerProfile(g))], -math.inf, -1.0)
    assert left == pytest.approx(got, abs=1e-14) if g < -1.0 else left == got


def test_line_integral_divergence_and_empty_range():
    """A mark in the range whose summed exponent is -1 or below diverges,
    one outside it does not, the whole line without factors diverges, and
    an empty range is log 0."""
    pole = [(0.0, PowerProfile(-0.6)), (0.0, PowerProfile(-0.4)), (2.0, PowerProfile(-1.0))]
    assert log_line_integral(pole, -1.0, 1.0) == (math.inf, math.inf)
    assert math.isfinite(log_line_integral(pole, 0.5, 1.5)[0])
    assert log_line_integral(pole, 1.0, 1.0) == (-math.inf, -math.inf)
    assert log_line_integral([], -math.inf, math.inf) == (math.inf, math.inf)


@pytest.mark.parametrize("s", [1.0, 2.0, 0.5, -0.5])
def test_line_integral_of_a_log_factor(s):
    """The integral of L(|x|)^s over [-1, 1], with L = log(1/r) below the
    knee 1/e and 1 above, is 2 (Gamma(s + 1, 1) + 1 - 1/e): the knees are
    marks, and the grading toward the log factor's centre runs deep."""
    with mpmath.workdps(30):
        exact = float(mpmath.log(2 * (mpmath.gammainc(s + 1, 1) + 1 - mpmath.exp(-1))))
    for value in log_line_integral([(0.0, LogPowerProfile(s))], -1.0, 1.0):
        assert value == pytest.approx(exact, abs=1e-14)


@pytest.mark.parametrize("c, h", [(1.0, 1e-14), (0.0, 1e-300), (0.0, 1.0), (0.0, 1e300),
                                  (-3.0, 0.5)])
def test_line_integral_forms_distances_from_the_marks(c, h):
    """With x = c + h y the integral of |x - c|^(-3/4) |x - c - h|^(-3/4) is
    h^(-1/2) B(1/4, 1/4) over [c, c + h] and h^(-1/2) B(1/2, 1/4) over
    [c + h, inf): every distance is a mark's own distance plus a node's
    offset from its mark, so c = 1 loses nothing to rounding at h = 1e-14,
    and nothing under- or overflows at h = 1e-300 or 1e300."""
    h = (c + h) - c
    factors = [(c, PowerProfile(-0.75)), (c + h, PowerProfile(-0.75))]
    inner = math.lgamma(0.25) * 2.0 - math.lgamma(0.5) - 0.5 * math.log(h)
    outer = math.lgamma(0.5) + math.lgamma(0.25) - math.lgamma(0.75) - 0.5 * math.log(h)
    for got, exact in ((log_line_integral(factors, c, c + h), inner),
                       (log_line_integral(factors, c + h, math.inf), outer)):
        for value in got:
            assert value == pytest.approx(exact, abs=1e-14 * max(1.0, abs(exact)))


@pytest.mark.parametrize("factors", [
    [(0.2 + 1e-6j, 1.5), (0.2 - 1e-6j, 1.5), (-0.5, 1.5)],
    [(1.0 + 1e-7, 3.0), (-0.3 + 0.4j, 3.0), (-0.3 - 0.4j, 3.0), (0.9 + 1e-9j, 3.0)],
    [(-1.3 + 0.4j, 7.3), (0.0, 7.3), (0.7 + 0.05j, 7.3), (0.7 - 0.05j, 7.3)],
    [(0.5 + 0.1j, -0.7), (-0.99 + 1e-3j, 1.01), (0.25, -0.5)],
], ids=["near-real-pair", "past-the-end", "outside-and-high", "negative"])
def test_line_integral_with_complex_centres(factors):
    """A centre x + iy off the line is sqrt((u - x)^2 + y^2) from a node u:
    the integral over [-1, 1] of prod_k |u - z_k|^e_k reads 30-digit mpmath
    to 1e-13, with centres just off the line, just past an end and outside
    the range, and halving every panel moves it by 1e-13 at most."""
    got = log_line_integral([(z, PowerProfile(e)) for z, e in factors], -1.0, 1.0)
    with mpmath.workdps(30):
        marks = sorted({-1.0, 1.0, *(complex(z).real for z, _ in factors
                                     if -1.0 < complex(z).real < 1.0)})
        exact = mpmath.log(mpmath.quad(lambda u: mpmath.fprod(
            abs(u - mpmath.mpc(z)) ** e for z, e in factors), marks))
    for value in got:
        assert abs(value - float(exact)) <= 1e-13 * max(1.0, abs(float(exact)))
    assert abs(got[0] - got[1]) <= 1e-13 * max(1.0, abs(got[0]))
    with pytest.raises(ValueError, match="finite ends"):
        log_line_integral([(z, PowerProfile(e)) for z, e in factors], -1.0, math.inf)


def test_line_stage_grades_toward_a_centre_just_ahead_of_a_half():
    """A half is graded toward its mark to the nearest centre off the mark on
    either side: a centre 1e-9 ahead of the half (as where the plane clamps
    a centre within rounding of its circle to the mark R) takes the panels
    of one 1e-9 behind it, down to an innermost panel at most 2e-9 long.
    Counting only centres behind left that half one panel, and the disk
    rule read |x|^-1.9 on B((0, 1), 1) 0.187 off in log."""
    from rieszkit.panels import line_panels

    behind, ahead = (line_panels(np.array([0.5]), np.array([[[1e-9]], [[way]], [[0.0]],
                                                            [[-1.9]], [[0.0]]]))
                     for way in (1.0, -1.0))
    for got, want in zip(ahead, behind):
        assert np.array_equal(got, want)
    assert behind[1].size > 10 and behind[1][0] == 0.0 and behind[2][0] <= 2e-9


@pytest.mark.parametrize("seed", range(4))
def test_line_stage_panels_keep_a_third_of_their_width_from_every_zero(seed):
    """The fast-power cut runs only where some |e| > 5, because every graded
    panel lies at least a third of its width from the zero of each form off
    its mark (and from the mark itself unless it starts there), so a power
    |e| <= 5 changes its log by at most 15 < 16 across it; checked on
    random groups with real and complex centres."""
    from rieszkit.panels import line_halves, line_panels

    rng = np.random.default_rng(seed)
    centre = np.sort(rng.uniform(-1.0, 1.0, (50, 4)), axis=1)
    offset = np.where(rng.random((50, 4)) < 0.3, 10.0 ** rng.uniform(-12, 0, (50, 4)), 0.0)
    marks = np.sort(np.concatenate([centre, rng.uniform(-1.5, 1.5, (50, 2))], axis=1), axis=1)
    _, _, _, length, forms = line_halves(marks, centre, offset, rng.uniform(-0.9, 5.0, (50, 4)),
                                         0.0)
    half, lo, hi = line_panels(length, forms)
    A, B, Y = (f[half] for f in forms[:3])
    at_mark = (A == 0.0) & (Y == 0.0)
    near = np.hypot(np.minimum(A + B * lo[:, None], A + B * hi[:, None]), Y)
    with np.errstate(divide="ignore"):  # a factor at the mark, on the panel that starts there
        ratio = np.abs(B) * (hi - lo)[:, None] / near
    assert np.all(ratio[~(at_mark & (lo == 0.0)[:, None])] <= 3.0 * (1.0 + 1e-12))


# ---------------------------------------------------------------------------
# maximal-operator inequalities
# ---------------------------------------------------------------------------


def test_maximal_inequality_pass_and_diverge():
    balls = [Ball([0.0], 1.0), Ball([0.0], 0.5), Ball([1.0], 2.0)]
    rep = check_maximal_inequalities(PowerWeight(0.5), 2.0, balls)
    assert rep.passed()
    # |x|^{3/2} is not in A_2, so the check raises before any integral runs
    with pytest.raises(HypothesisFailed) as err:
        check_maximal_inequalities(PowerWeight(1.5), 2.0, balls)
    assert err.value.item == "w in A_2"
    assert err.value.detail == ("w^-1 has the factor PowerProfile(-1.5, 0.0) at [0.0], which "
                                "is not locally integrable in dimension 1")
    # at p = 1 the maximal operators have only the weak-type bound, for every
    # weight: M chi_B ~ |B| / |x| is not integrable against the unit weight
    for alpha in (None, 0.5):
        with pytest.raises(ValueError, match="p > 1"):
            check_maximal_inequalities(PowerWeight(0.0), 1.0, balls, alpha)


#: (weight, p, alpha, the weight as an mpmath function, its marks) for
#: ``test_maximal_ratio_matches_mpmath``
_MAXIMAL_CASES = [
    (PowerWeight(0.5), 2.0, None, lambda x: abs(x) ** mpmath.mpf(0.5), [0]),
    (PowerWeight(-1.0 / 12.0), 2.0, 0.25, lambda x: abs(x) ** (-mpmath.mpf(1) / 12), [0]),
    (LogExampleWeight(1, 1.0), 2.0, None,
     lambda x: mpmath.log(1 / abs(x)) if abs(x) < mpmath.exp(-1) else 1,
     [0, -mpmath.exp(-1), mpmath.exp(-1)]),
    (ProductPowerWeight(((0.3, (0.0,)), (-0.4, (1.0,)))), 3.0, None,
     lambda x: abs(x) ** mpmath.mpf(0.3) * abs(x - 1) ** mpmath.mpf(-0.4), [0, 1]),
]


def _mpmath_maximal_ratio(weight, marks, p, alpha, center, radius):
    """||M_beta chi_B|| / ||chi_B|| at 30 digits, with mpmath's quadrature
    split at the ball's ends and the weight's marks."""
    with mpmath.workdps(30):
        lo, hi = mpmath.mpf(center) - radius, mpmath.mpf(center) + radius
        beta = 0 if alpha is None else mpmath.mpf(alpha)
        q = p if alpha is None else 1 / (mpmath.mpf(1) / p - beta)
        s_num, s_den = (1, 1) if alpha is None else (q, p)

        def num(x):
            return ((hi - lo) * (hi - lo + max(lo - x, x - hi, 0)) ** (beta - 1)) ** q \
                * weight(x) ** s_num

        pts = sorted({lo, hi, *(mpmath.mpf(m) for m in marks)})
        inner = [t for t in pts if lo <= t <= hi]
        total = (mpmath.quad(num, [-mpmath.inf] + [t for t in pts if t <= lo])
                 + mpmath.quad(num, inner)
                 + mpmath.quad(num, [t for t in pts if t >= hi] + [mpmath.inf]))
        den = mpmath.quad(lambda x: weight(x) ** s_den, inner)
        return float(total ** (1 / q) / den ** (mpmath.mpf(1) / p))


@pytest.mark.parametrize("case", range(len(_MAXIMAL_CASES)),
                         ids=["power", "fractional", "log", "product"])
def test_maximal_ratio_matches_mpmath(case):
    """Each test ball's ratio is read on the whole line and matches a
    30-digit mpmath quadrature to 1e-10 relative, for power, fractional
    (alpha = 1/4, q = 4), log and two-centre product weights, with an
    ``err_est`` of 1e-10 or less."""
    w, p, alpha, weight, marks = _MAXIMAL_CASES[case]
    balls = [(0.0, 1.0), (1.0, 2.0), (3.0, 0.25)]
    rep = check_maximal_inequalities(w, p, [Ball([c], r) for c, r in balls], alpha)
    assert rep.passed() and rep.extras == {}
    for (c, r), row in zip(balls, rep.witnesses):
        assert (row["center"], row["radius"]) == ([c], r)
        assert row["ratio"] == pytest.approx(
            _mpmath_maximal_ratio(weight, marks, p, alpha, c, r), rel=1e-10)
        assert row["err_est"] <= 1e-10
    assert rep.worst == max(row["ratio"] for row in rep.witnesses)


def test_maximal_ratio_is_dilation_invariant():
    """For |x|^{1/2} the ratio on B(0, r) does not depend on r, and on
    B(1, r) it tends to the unit weight's sqrt(3) as r -> 0 (the weight is
    1 + O(r) there): each ball's integrals are formed from the offsets of
    their nodes from the marks, in logarithms, so 1e-300 and 1e300 neither
    under- nor overflow, and 1 + 1e-14 loses nothing to rounding."""
    radii = [1.0, 1e-300, 1e300]
    rep = check_maximal_inequalities(PowerWeight(0.5), 2.0,
                                     [Ball([0.0], r) for r in radii] + [Ball([1.0], 1e-14)])
    unit, tiny, huge, near = (row["ratio"] for row in rep.witnesses)
    assert tiny == pytest.approx(unit, rel=1e-12) and huge == pytest.approx(unit, rel=1e-12)
    assert near == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_maximal_check_refuses_what_it_cannot_integrate():
    """A tabulated weight is not known beyond its grid, and a ball whose
    ends round to its centre has no length."""
    grid = RegularGrid((-1.0,), (1.0,), (2,))
    with pytest.raises(ValueError, match="tabulated"):
        check_maximal_inequalities(TabulatedWeight(grid, np.array([1.0, 2.0])), 2.0,
                                   [Ball([0.0], 1.0)])
    with pytest.raises(ValueError, match="length"):
        check_maximal_inequalities(PowerWeight(0.5), 2.0, [Ball([1.0], 1e-17)])


@pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.9])
def test_indicator_maximal_matches_lattice_search(beta):
    """The closed form |B| (|B| + dist(x, B))^(beta-1) equals the general
    lattice search, whose candidates include x and both support ends: inside
    the support, at both ends, one ulp outside them and 200 radii out."""
    for c, r in ((0.0, 1.0), (1.5, 0.25), (-2.0, 1e-3)):
        ball = Ball([c], r)
        lo, hi = c - r, c + r
        xs = [c, c + 0.3 * r, lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
              lo - 200.0 * r, hi + 200.0 * r]
        got = indicator_maximal_1d(ball, np.array(xs), beta)
        f = SampledFunction(ball)
        for x, v in zip(xs, got):
            want = hl_maximal(f, [x]) if beta == 0.0 else fractional_maximal(f, [x], beta)
            assert v == pytest.approx(want, rel=1e-12), (c, r, x)


def test_indicator_maximal_needs_beta_below_one():
    for beta in (1.0, 1.5):
        with pytest.raises(ValueError):
            indicator_maximal_1d(Ball([0.0], 1.0), np.array([0.0, 2.0]), beta)


def test_maximal_inequality_fractional():
    balls = [Ball([0.0], 1.0), Ball([1.0], 2.0)]
    rep = check_maximal_inequalities(PowerWeight(-1.0 / 12.0), 2.0, balls, alpha=0.25)
    assert rep.passed()


# ---------------------------------------------------------------------------
# theorem campaigns
# ---------------------------------------------------------------------------


def test_campaign_zero_order_smoke():
    prof = equal_split(0.0, 2, 1)
    fam = scalar_family([1.0, -1.0], pairwise_invertible=True)
    rep = run_theorem_campaign("thm-zero", PowerWeight(0.5), prof, fam, SMALL_SPEC)
    assert rep.passed()
    assert rep.stability["drift"] < 4.0
    assert all(r["inner"] >= 0 and r["outer"] >= 0 for r in rep.witnesses)
    assert "lp0_spot_check" in rep.extras
    assert math.isfinite(rep.extras["lp0_spot_check"])


def test_campaign_positive_order_and_corollary():
    spec = CampaignSpec(count=4, seed=23, centers=((0.0,), (1.0,)), radii=(0.5, 2.0),
                        p=0.75, p0=1.5, s=0.75, outer_octaves=6,
                        inner_resolution=128, outer_resolution=32)
    w = PowerWeight(-0.125)
    prof = ExponentProfile(0.5, (0.25, 0.25), 1)
    rep = run_theorem_campaign("thm-positive", w, prof, scalar_family([1.0, -1.0]), spec)
    assert rep.passed()
    assert rep.extras["q"] == pytest.approx(1.0 / (1.0 / 0.75 - 0.5))

    # the corollary is the identity-family case of the same pipeline
    prof1 = ExponentProfile(0.5, (0.5,), 1)
    r1 = run_theorem_campaign("thm-positive", w, prof1, identity_family(1), spec)
    r2 = run_theorem_campaign("thm-positive", w, prof1, identity_family(1), spec)
    assert r1.passed()
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(),
                                                                  sort_keys=True)


def test_campaign_hypothesis_gates():
    spec = CampaignSpec(count=2, seed=1, p=0.75, p0=1.5, s=0.75)
    w = PowerWeight(-0.125)
    with pytest.raises(HypothesisFailed):
        run_theorem_campaign("thm-positive", w, ExponentProfile(0.9, (0.05, 0.05), 1),
                             scalar_family([1.0, -1.0]), spec)
    with pytest.raises(HypothesisFailed) as err:
        run_theorem_campaign("thm-zero", PowerWeight(0.5), equal_split(0.0, 2, 1),
                             scalar_family([1.0, 1.0]), SMALL_SPEC)
    assert "pairwise" in err.value.item
    # p0 at or below the threshold is rejected
    bad = CampaignSpec(count=2, seed=1, p=0.75, p0=1.1, s=0.75)
    with pytest.raises(HypothesisFailed) as err:
        run_theorem_campaign("thm-positive", w, ExponentProfile(0.5, (0.25, 0.25), 1),
                             scalar_family([1.0, -1.0]), bad)
    assert "p0" in err.value.item


def test_failed_class_audits_name_the_exponent():
    """Each class audit fails with the exponent rule's reason as its detail:
    the product |x|^{-0.3} |x - 1|^{-0.4} is |x|^{-0.7} at infinity, so at
    p = 5/4 and alpha = 1/4 (q = 20/11) w^q decays too fast there for
    A_{p,q}, although each factor of w^q is locally integrable; the
    theorem-ta audit of
    w^{n/((n-alpha)s)} in A_1 fails on the zero of |x|^{1/4}."""
    w = ProductPowerWeight(((-0.3, (0.0,)), (-0.4, (1.0,))))
    with pytest.raises(HypothesisFailed) as err:
        check_maximal_inequalities(w, 1.25, [Ball([0.0], 1.0)], alpha=0.25)
    assert err.value.item == "w in A_pq(p=1.25,q=1.81818)"
    assert err.value.detail == ("w has the factor PowerProfile(-0.7, 0.0) at infinity, whose "
                                "power 1.81818 is not locally integrable in dimension 1")
    spec = CampaignSpec(count=2, seed=1, p=0.75, p0=1.5, s=0.75)
    with pytest.raises(HypothesisFailed) as err:
        run_theorem_campaign("thm-positive", PowerWeight(0.25),
                             ExponentProfile(0.5, (0.25, 0.25), 1), scalar_family([1.0, -1.0]),
                             spec)
    assert err.value.item == "w^{n/((n-alpha)s)} in A_1"
    assert err.value.detail == "w vanishes at [0.0]"


def test_campaign_parallel_matches_serial():
    prof = equal_split(0.0, 2, 1)
    fam = scalar_family([1.0, -1.0], pairwise_invertible=True)
    spec = CampaignSpec(count=4, seed=9, centers=((0.0,),), radii=(0.5, 1.0, 2.0, 4.0),
                        p=1.0, p0=2.0, outer_octaves=5, inner_resolution=64,
                        outer_resolution=16)
    serial = run_theorem_campaign("thm-zero", PowerWeight(0.5), prof, fam, spec, jobs=1)
    parallel = run_theorem_campaign("thm-zero", PowerWeight(0.5), prof, fam, spec, jobs=2)
    assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
        parallel.to_dict(), sort_keys=True)


def test_campaign_shares_balls_and_keeps_atom_order():
    """Atoms interleaved over 2 centres x 2 radii are evaluated one ball at a
    time: every witness row is bit for bit the one-atom norm split, rows stay
    in atom order, and jobs=2 gives the serial report's bytes."""
    from rieszkit.verify import _campaign_worker

    prof = equal_split(0.0, 2, 1)
    fam = scalar_family([1.0, -1.0], pairwise_invertible=True)
    spec = CampaignSpec(count=8, seed=3, centers=((0.0,), (1.0,)), radii=(0.5, 2.0),
                        p=1.0, p0=2.0, outer_octaves=5, inner_resolution=64,
                        outer_resolution=16)
    w = PowerWeight(0.5)
    serial = run_theorem_campaign("thm-zero", w, prof, fam, spec, jobs=1)
    parallel = run_theorem_campaign("thm-zero", w, prof, fam, spec, jobs=2)
    assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
        parallel.to_dict(), sort_keys=True)
    balls = [(r["center"][0], r["radius"]) for r in serial.witnesses]
    assert balls == [(0.0, 0.5), (1.0, 0.5), (0.0, 2.0), (1.0, 2.0)] * 2

    params = AtomParams(1.0, 2.0, serial.extras["d"], w, 1)
    for row in serial.witnesses:
        atom = construct_atom(Ball(row["center"], row["radius"]), params, row["seed"])
        alone, = _campaign_worker(([atom], prof, fam, w, 1.0, 1.0, spec))
        assert alone == row


def _thm1_smoke_at(radius, d=None):
    """thm1-smoke's weight and matrices with one atom of moment degree d on
    B(0, radius)."""
    import warnings

    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                   "thm1-smoke.json"))
    spec = CampaignSpec(count=1, seed=20240801, centers=((0.0,),), radii=(radius,),
                        p=1.0, p0=2.0, d=d)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return run_theorem_campaign("thm-zero", cfg.weight, cfg.exponents, cfg.matrices, spec)


@pytest.mark.parametrize("radius", [2.0**-40, 1e-50, 1e-150, 1e150])
def test_campaign_norm_is_dilation_invariant(radius):
    """Dilation maps B(0, r) onto B(0, 1), |x|^{1/2} to a multiple of itself
    and the saturated atom to the unit ball's: its L^1_w norm of T a is the
    same, and its L^2 spot check scales as 1/r.  The truncated line scales
    with the ball, and the integrand is formed from logarithms, so both
    read the radius-1 values to rounding, with no numpy warning (at radius
    1e-50 the norm read 1.24e12, and at 1e-150 the spot check read inf)."""
    base, rep = _thm1_smoke_at(1.0), _thm1_smoke_at(radius)
    assert rep.passed() and rep.worst == pytest.approx(base.worst, rel=1e-12)
    assert rep.extras["lp0_spot_check"] * radius == pytest.approx(
        base.extras["lp0_spot_check"], rel=1e-12)


@pytest.mark.parametrize("p0", [1000.0, 1e5])
def test_lp0_spot_check_is_finite_at_a_large_p0(p0):
    """thm1-smoke's campaign with 4 atoms at p0 = 1000 and 1e5 reports a
    finite L^p0 spot check, with no numpy warning: the shift of its cells is
    the largest log-integrand they see.  Shifted by the values at the ends
    of the expanded balls, |T a|^p0 overflowed and the check read inf."""
    import warnings

    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                   "thm1-smoke.json"))
    spec = CampaignSpec(count=4, seed=20240801, p=1.0, p0=p0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = run_theorem_campaign("thm-zero", cfg.weight, cfg.exponents, cfg.matrices, spec)
    assert rep.passed() and 0.0 < rep.extras["lp0_spot_check"] < math.inf


def test_campaign_norm_at_the_degree_cap_is_dilation_invariant():
    """At d = ``config.MAX_DEGREE`` one atom's thm1 norm about 0 at radii
    0.25, 1 and 4 agrees to 1e-8: it reads 1.3e-9 there and 1.5e-10 at
    degree 12, the digits the near field loses to the monomial storage."""
    worst = [_thm1_smoke_at(r, MAX_DEGREE).worst for r in (0.25, 1.0, 4.0)]
    assert max(worst) - min(worst) <= 1e-8 * max(worst)


def test_campaign_reproducible_bitwise():
    prof = equal_split(0.0, 2, 1)
    fam = scalar_family([1.0, -1.0], pairwise_invertible=True)
    spec = CampaignSpec(count=2, seed=5, centers=((0.0,),), radii=(0.5, 1.0, 2.0, 4.0),
                        p=1.0, p0=2.0, outer_octaves=5, inner_resolution=64,
                        outer_resolution=16)
    a = run_theorem_campaign("thm-zero", PowerWeight(0.5), prof, fam, spec)
    b = run_theorem_campaign("thm-zero", PowerWeight(0.5), prof, fam, spec)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(),
                                                                 sort_keys=True)


# ---------------------------------------------------------------------------
# provenance digest
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("obj", [
    {"w": {"kind": "power", "exponent": 0.5, "center": [0.0]}, "p": 1.0, "alpha": None},
    {"outer": {"inner": {"deep": [1, 2.5, {"x": -0.0}]}}, "b": 1e-300, "a": 1e300},
    {"name": "Hölder–Riesz λ ∞", "values": [math.pi, 0.1 + 0.2]},
    {"empty": {}, "list": [], "text": ""},
    {}, [], "", 3.0,
])
def test_config_hash_is_sha256_of_sorted_json(obj):
    """The builtin digest gives hashlib's sha256 of the canonical JSON, so a
    digest fallback that changed any report's provenance fails here."""
    text = json.dumps(obj, sort_keys=True, default=str).encode()
    assert config_hash(obj) == hashlib.sha256(text).hexdigest()[:16]


def test_config_hash_of_the_bundled_thm1_smoke():
    """The literal provenance hash of the bundled thm1-smoke report."""
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                   "thm1-smoke.json"))
    assert config_hash({"kind": "thm-zero", "w": weight_to_dict(cfg.weight),
                        "alpha": cfg.exponents.alpha,
                        "spec": cfg.campaign.to_dict()}) == "fee491910a05ef81"
