"""Weight evaluation, class-constant estimates, critical indices."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszkit import (Ball, LogExampleWeight, MatrixFamily, NotIntegrable, OutOfGrid,
                      PowerWeight, ProductPowerWeight, RegularGrid,
                      SingularPoint, TabulatedWeight, check_matrix_compatibility,
                      critical_indices, default_ball_family, dyadic_ball_family,
                      estimate_A1_constant, estimate_Ap_constant,
                      estimate_Apq_constant, estimate_RH_constant, eval_weight,
                      power_mean, scalar_family, weight_power, weighted_measure)
from rieszkit.config import build_weight
from rieszkit.weights import eval_weight_batch, radial_factors, weight_to_dict

# frozen oracle values (see the oracle implementations further down)
LOG_MEASURE_ORACLE = 1.471517480466384       # 1e6-node midpoint + analytic center cell
A1_THIRD_ORACLE = 1.6657532061626503         # direct max of avg/min over dyadic balls
RH4_EIGHTH_ORACLE = 1.0466889362026777       # direct max of power means over the family


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_examples():
    assert eval_weight(LogExampleWeight(), [1.0]) == pytest.approx(1.0)
    assert eval_weight(PowerWeight(0.0), [123.4]) == pytest.approx(1.0)
    assert eval_weight(PowerWeight(0.5), [4.0]) == pytest.approx(2.0)


def test_eval_rejects_singular_points():
    with pytest.raises(SingularPoint):
        eval_weight(PowerWeight(-0.5), [0.0])
    with pytest.raises(SingularPoint):
        eval_weight(PowerWeight(0.5), [0.0])  # zeros rejected too
    with pytest.raises(SingularPoint):
        eval_weight(LogExampleWeight(), [0.0])
    # the constant weight has no singular point
    assert eval_weight(PowerWeight(0.0), [0.0]) == 1.0


@pytest.mark.parametrize("w, center, limit", [
    (PowerWeight(0.5, scale=2.0), [0.0], 0.0),
    (PowerWeight(-0.5), [0.0], math.inf),
    (LogExampleWeight(power=1.0), [0.0], math.inf),
    (LogExampleWeight(power=-2.0, scale=3.0), [0.0], 0.0),
    (ProductPowerWeight(((0.5, (1.0,)), (-0.25, (-1.0,))), scale=2.0), [1.0], 0.0),
    (ProductPowerWeight(((0.5, (1.0,)), (-0.25, (-1.0,)))), [-1.0], math.inf),
    (PowerWeight(-0.5, dimension=2), [0.0, 0.0], math.inf),
    (ProductPowerWeight(((0.75, (0.5, 0.0)),), dimension=2), [0.5, 0.0], 0.0),
], ids=["power-zero", "power-pole", "log-pole", "log-zero", "product-zero",
        "product-pole", "power-2d-pole", "product-2d-zero"])
def test_eval_limit_at_each_center(w, center, limit):
    """At a center the extended value is the limit (0 at a zero, +inf at a
    pole); next to it the weight is finite and positive, on its way there."""
    pts = np.array([center, np.add(center, 1e-9), np.add(center, 1e-3)])
    vals = eval_weight_batch(w, pts, extended=True)
    assert vals[0] == limit
    assert np.all((0.0 < vals[1:]) & (vals[1:] < math.inf))
    assert (vals[1] > vals[2]) == (limit == math.inf)
    with pytest.raises(SingularPoint):
        eval_weight(w, center)


@pytest.mark.parametrize("x", [1e-15, -1e-15, 1e-300, -1e-300])
def test_eval_next_to_the_center_is_not_the_center(x):
    """Only the centre itself takes the limit: |x|^(-1/8) at 1e-15 is 75, not
    +inf, and at 1e-300 the distance does not underflow onto the centre."""
    w = PowerWeight(-0.125)
    for extended in (False, True):
        assert eval_weight_batch(w, [[x]], extended=extended)[0] == abs(x) ** -0.125
    assert eval_weight_batch(w, [[0.0]], extended=True)[0] == math.inf


@pytest.mark.parametrize("x", [1e-200, 1e200])
def test_eval_plane_distance_is_not_a_root_of_squares(x):
    """In the plane |x - c| is not formed from squares, which would underflow
    or overflow: |x|^(-1/2) reads 1e100 at (1e-200, 0) and 1e-100 at (1e200, 0)."""
    w = PowerWeight(-0.5, dimension=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = eval_weight_batch(w, [[x, 0.0], [0.0, -x]])
    assert vals.tolist() == pytest.approx([x ** -0.5] * 2, rel=1e-15)


def test_product_factors_at_one_center_merge():
    """|x|^(1/2) |x|^(-1/4) is |x|^(1/4): the value at the center is the zero's
    limit 0 (no 0 * inf), and its power means are PowerWeight(0.25)'s."""
    w = ProductPowerWeight(((0.5, (0.0,)), (-0.25, (0.0,))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_weight_batch(w, np.array([[0.0]]), extended=True).tolist() == [0.0]
    ref = PowerWeight(0.25)
    for ball in (Ball([0.0], 1.0), Ball([0.05], 0.1), Ball([-3.0], 0.5)):
        for s in (1.0, -2.0):
            assert power_mean(w, s, ball) == pytest.approx(power_mean(ref, s, ball), rel=1e-14)


def test_log_example_power_zero_is_constant():
    """log(1/|x|)^0 is the constant weight: no singular point anywhere."""
    w = LogExampleWeight(power=0.0, scale=3.0)
    assert eval_weight(w, [0.0]) == 3.0
    pts = np.array([[0.0], [0.1], [5.0]])
    assert eval_weight_batch(w, pts, extended=True).tolist() == [3.0, 3.0, 3.0]


def test_power_weight_integrability_guard():
    with pytest.raises(ValueError):
        PowerWeight(-1.0, dimension=1)
    with pytest.raises(ValueError):
        ProductPowerWeight(((-2.0, (0.0, 0.0)),), dimension=2)


def test_tabulated_weight_lookup_and_out_of_grid():
    grid = RegularGrid((-1.0,), (1.0,), (4,))
    w = TabulatedWeight(grid, np.array([1.0, 2.0, 3.0, 4.0]))
    assert eval_weight(w, [-0.9]) == 1.0
    assert eval_weight(w, [0.9]) == 4.0
    with pytest.raises(OutOfGrid):
        eval_weight(w, [1.5])
    with pytest.raises(ValueError):
        TabulatedWeight(grid, np.array([1.0, -2.0, 3.0, 4.0]))


def test_tabulated_from_csv(tmp_path):
    from rieszkit.weights import tabulated_from_csv

    grid = RegularGrid((-1.0,), (1.0,), (8,))
    mids = np.linspace(-1.0, 1.0, 17)[1::2]
    rows = np.column_stack([mids, 1.0 + mids**2])
    path = tmp_path / "w.csv"
    np.savetxt(path, rows, delimiter=",")
    w = tabulated_from_csv(path, grid)
    assert eval_weight(w, [mids[3]]) == pytest.approx(1.0 + mids[3] ** 2)


def test_apq_ess_inf_branch(std_family):
    # p = 1 uses the node-minimum in place of the dual average
    w = weight_power(PowerWeight(-1.0 / 3.0), 0.25)
    rep = estimate_Apq_constant(w, 1.0, 4.0, std_family)
    assert rep.verdict == "finite"
    assert rep.constant >= 1.0 - 1e-12


def test_weight_serialization_roundtrip():
    """weight_to_dict is read back by the config parser, scale included."""
    grid = RegularGrid((-1.0,), (1.0,), (4,))
    for w in (PowerWeight(0.5), PowerWeight(-0.25, scale=2.5), LogExampleWeight(power=2.0),
              ProductPowerWeight(((0.5, (1.0,)), (-0.25, (-1.0,))), scale=0.5),
              TabulatedWeight(grid, np.array([1.0, 2.0, 3.0, 4.0])),
              TabulatedWeight(grid, np.array([1.0, 2.0, 3.0, 4.0]), scale=3.0)):
        back = build_weight(weight_to_dict(w), w.dimension)
        assert weight_to_dict(back) == weight_to_dict(w)
        xs = np.array([[0.3], [-0.7]])
        assert np.array_equal(eval_weight_batch(w, xs), eval_weight_batch(back, xs))


# ---------------------------------------------------------------------------
# weighted measures
# ---------------------------------------------------------------------------


def test_measure_examples():
    assert weighted_measure(PowerWeight(0.0), 1.0, Ball([0.0], 1.0)) == pytest.approx(2.0)
    # integral of |x| over [-1, 1]
    assert weighted_measure(PowerWeight(0.5), 2.0, Ball([0.0], 1.0)) == pytest.approx(1.0)
    # |x|^{1/2} doubles by 2^{3/2} from B(0, 1) to B(0, 2)
    b01 = Ball([0.0], 1.0)
    ratio = (weighted_measure(PowerWeight(0.5), 1.0, b01.scaled(2.0))
             / weighted_measure(PowerWeight(0.5), 1.0, b01))
    assert ratio == pytest.approx(2.0**1.5, rel=1e-10)


def test_measure_log_example_against_oracle():
    val = weighted_measure(LogExampleWeight(), 1.0, Ball([0.0], math.exp(-1)))
    assert val == pytest.approx(LOG_MEASURE_ORACLE, rel=1e-5)
    assert val == pytest.approx(4.0 / math.e, rel=1e-10)


def test_measure_not_integrable():
    with pytest.raises(NotIntegrable):
        weighted_measure(PowerWeight(0.5), -2.5, Ball([0.0], 1.0))


def test_measure_off_center_ball_contains_singularity():
    # B(0.5, 1) contains the pole of |x|^{-1/2}
    v = weighted_measure(PowerWeight(-0.5), 1.0, Ball([0.5], 1.0))
    exact = 2.0 * math.sqrt(0.5) + 2.0 * math.sqrt(1.5)
    assert v == pytest.approx(exact, rel=1e-10)


# ---------------------------------------------------------------------------
# class constants
# ---------------------------------------------------------------------------


def test_a1_constant_unit_weight(std_family):
    rep = estimate_A1_constant(PowerWeight(0.0), std_family)
    assert rep.verdict == "finite"
    assert rep.constant == pytest.approx(1.0)


def test_a1_negative_power_finite(std_family):
    rep = estimate_A1_constant(PowerWeight(-1.0 / 3.0), std_family)
    assert rep.verdict == "finite"
    assert rep.constant == pytest.approx(A1_THIRD_ORACLE, rel=1e-3)


def test_a1_log_example_weight(std_family):
    rep = estimate_A1_constant(LogExampleWeight(), std_family)
    assert rep.verdict == "finite"
    assert rep.constant >= 1.0
    # the log weight is radial, so reflections leave it invariant
    assert check_matrix_compatibility(LogExampleWeight(),
                                      scalar_family([1.0, -1.0]))[0] == pytest.approx(1.0)


def test_a1_positive_power_diverges(std_family):
    """|x|^{1/2} vanishes at the origin, so its essential infimum on a ball
    around it is 0: the exponent rule excludes A_1, and the family is not
    evaluated."""
    rep = estimate_A1_constant(PowerWeight(0.5), std_family)
    assert rep.verdict == "diverging"
    assert rep.constant == math.inf and rep.worst_ball is None
    assert rep.excluded_by == "w vanishes at [0.0]"


@pytest.mark.parametrize("estimate", [
    lambda w, fam: estimate_A1_constant(w, fam),
    lambda w, fam: estimate_Apq_constant(w, 1.0, 2.0, fam),
], ids=["A1", "Apq(1,2)"])
def test_a1_positive_power_diverges_in_the_plane(estimate):
    """|x|^a is in A_1 only for a <= 0, in the plane as on the line: the
    exponent rule reads the zero of |x|^{1/2} at the origin."""
    rep = estimate(PowerWeight(0.5, dimension=2), default_ball_family(2))
    assert rep.verdict == "diverging" and rep.constant == math.inf
    assert rep.worst_ball is None and rep.excluded_by == "w vanishes at [0.0, 0.0]"


def test_ap_examples(std_family):
    assert estimate_Ap_constant(PowerWeight(0.0), 2.0, std_family).constant == pytest.approx(1.0)
    rep = estimate_Ap_constant(PowerWeight(0.5), 2.0, std_family)
    assert rep.verdict == "finite"
    rep = estimate_Ap_constant(PowerWeight(1.2), 2.0, std_family)
    assert rep.verdict == "diverging"


def test_apq_examples(std_family):
    assert (estimate_Apq_constant(PowerWeight(0.0), 2.0, 4.0, std_family).constant
            == pytest.approx(1.0))
    # w in A_1 implies w^{1/q} in A_{p,q}
    wq = weight_power(PowerWeight(-1.0 / 3.0), 0.25)
    rep = estimate_Apq_constant(wq, 2.0, 4.0, std_family)
    assert rep.verdict == "finite"


def test_apq_diagonal_matches_ap(std_family):
    # p = q: the two-exponent constant is [w^p]_{A_p}^{1/p}
    w = PowerWeight(0.25)
    r1 = estimate_Apq_constant(w, 2.0, 2.0, std_family)
    r2 = estimate_Ap_constant(weight_power(w, 2.0), 2.0, std_family)
    assert r1.verdict == r2.verdict == "finite"
    assert r1.constant**2 == pytest.approx(r2.constant, rel=1e-8)


def test_rh_examples(std_family):
    assert estimate_RH_constant(PowerWeight(0.0), 4.0, std_family).constant == pytest.approx(1.0)
    rep = estimate_RH_constant(PowerWeight(-0.125), 4.0, std_family)
    assert rep.verdict == "finite"
    assert rep.constant == pytest.approx(RH4_EIGHTH_ORACLE, rel=1e-4)
    rep = estimate_RH_constant(PowerWeight(-0.125), 16.0, std_family)
    assert rep.verdict == "diverging"


def test_constants_at_least_one(std_family):
    for w in (PowerWeight(0.0), PowerWeight(0.5), PowerWeight(-1.0 / 3.0),
              LogExampleWeight()):
        for p in (1.5, 2.0, 3.0):
            rep = estimate_Ap_constant(w, p, std_family)
            assert rep.constant >= 1.0 - 1e-12
        rep = estimate_RH_constant(w, 2.0, std_family)
        assert rep.constant >= 1.0 - 1e-12


def test_ap_monotone_in_p(std_family):
    for w in (PowerWeight(0.5), PowerWeight(-1.0 / 3.0)):
        values = [estimate_Ap_constant(w, p, std_family).constant
                  for p in (1.6, 2.0, 2.5, 3.0)]
        assert all(values[i + 1] <= values[i] * (1 + 1e-9) for i in range(len(values) - 1))


def test_rh_monotone_in_s(std_family):
    values = [estimate_RH_constant(PowerWeight(-0.125), s, std_family).constant
              for s in (1.5, 2.0, 3.0, 4.0)]
    assert all(values[i + 1] >= values[i] * (1 - 1e-9) for i in range(len(values) - 1))


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=0.01, max_value=100.0))
def test_scaling_invariance(c):
    family = dyadic_ball_family([[0.0], [1.0]], -4, 0)
    base = PowerWeight(0.5)
    scaled = PowerWeight(0.5, scale=c)
    for fn, arg in ((estimate_Ap_constant, 2.0), (estimate_RH_constant, 2.0)):
        a = fn(base, arg, family).constant
        b = fn(scaled, arg, family).constant
        assert b == pytest.approx(a, rel=1e-10)
    a1 = estimate_A1_constant(base, family).constant
    b1 = estimate_A1_constant(scaled, family).constant
    assert b1 == pytest.approx(a1, rel=1e-10)


def test_power_weight_classifier_spot_checks(std_family):
    # a < n (p - 1) with margin 0.2 decides finiteness
    cases = [(-0.8, 1.5, True), (0.5, 2.0, True), (0.9, 1.25, False),
             (0.5, 1.25, False)]
    for a, p, finite in cases:
        rep = estimate_Ap_constant(PowerWeight(a), p, std_family)
        assert (rep.verdict == "finite") == finite, (a, p)


# ---------------------------------------------------------------------------
# class membership from the exponents
# ---------------------------------------------------------------------------


def _product(*factors, dimension=1):
    return ProductPowerWeight(tuple(factors), dimension=dimension)


_LINE_PAIR = ((0.0,), (1.0,))
_PLANE_PAIR = ((0.0, 0.0), (1.0, 0.0))
_AGREEMENT_WEIGHTS = [
    *(PowerWeight(a) for a in (-0.75, -0.3, 0.0, 0.4, 1.3)),
    *(PowerWeight(a, dimension=2) for a in (-1.5, -0.6, 0.7, 2.5)),
    *(_product((a, _LINE_PAIR[0]), (b, _LINE_PAIR[1]))
      for a, b in ((-0.3, -0.4), (0.3, -0.4), (0.6, 0.7), (-0.55, -0.7), (-0.2, 0.45))),
    *(_product((a, _PLANE_PAIR[0]), (b, _PLANE_PAIR[1]), dimension=2)
      for a, b in ((-0.5, -0.7), (0.4, -0.9), (-1.2, -1.1))),
]


@pytest.mark.parametrize("w", _AGREEMENT_WEIGHTS,
                         ids=lambda w: f"{type(w).__name__}-{w.dimension}d")
def test_class_verdicts_agree_with_the_critical_indices(w):
    """On a grid of power and product exponents, on the line and in the
    plane: A_p reads finite exactly for p > q_w, RH_s exactly for s < r_w,
    and A_1 exactly when q_w = 1 and w vanishes nowhere.  Products read a
    small family: only the verdicts are compared."""
    n = w.dimension
    idx = critical_indices(w)
    exponents = [a for a, _ in w.factors] if hasattr(w, "factors") else [w.exponent]
    vanishes = any(a > 0.0 for a in exponents)
    fam = (default_ball_family(n) if isinstance(w, PowerWeight)
           else dyadic_ball_family([list(c) for c in (_LINE_PAIR, _PLANE_PAIR[:1])[n - 1]],
                                   -1, 2))
    rep = estimate_A1_constant(w, fam)
    assert (rep.verdict == "finite") == (idx.q_critical == 1.0 and not vanishes)
    for p in (1.25, 1.5, 2.0, 3.0, 5.0):
        assert p != idx.q_critical
        rep = estimate_Ap_constant(w, p, fam)
        assert (rep.verdict == "finite") == (p > idx.q_critical), p
    for s in (1.2, 1.5, 2.0, 4.0, 16.0):
        assert s != idx.rh_critical
        rep = estimate_RH_constant(w, s, fam)
        assert (rep.verdict == "finite") == (s < idx.rh_critical), s
        assert (rep.excluded_by is None) == (rep.verdict == "finite")


@pytest.mark.parametrize("w, estimate, boundary, inside", [
    (PowerWeight(0.5), lambda w, p: estimate_Ap_constant(w, p, default_ball_family(1)),
     1.5, math.nextafter(1.5, 2.0)),
    (PowerWeight(-0.5), lambda w, s: estimate_RH_constant(w, s, default_ball_family(1)),
     2.0, math.nextafter(2.0, 1.0)),
    (PowerWeight(-0.5, dimension=2),
     lambda w, s: estimate_RH_constant(w, s, default_ball_family(2)),
     4.0, math.nextafter(4.0, 1.0)),
], ids=["A_1.5", "RH_2", "plane-RH_4"])
def test_class_boundaries_read_diverging(w, estimate, boundary, inside):
    """|x|^{1/2} at p = 1.5, and |x|^{-1/2} at s = 2 (s = 4 in the plane),
    lie on the boundary of their class: w^{-2}, or w^s, is |x|^{-n}.  The
    exponent rule compares exactly, so the boundary reads diverging and one
    ulp inside it, in the order or in the exponent, reads finite."""
    n = w.dimension
    rep = estimate(w, boundary)
    assert rep.verdict == "diverging" and rep.excluded_by.endswith(
        f"at {[0.0] * n}, which is not locally integrable in dimension {n}")
    assert estimate(w, inside).verdict == "finite"
    nearer_zero = PowerWeight(math.nextafter(w.exponent, 0.0), dimension=n)
    assert estimate(nearer_zero, boundary).verdict == "finite"


_PAIR_A = _product((0.3, (0.0,)), (-0.4, (1.0,)))
_PAIR_B = _product((0.6, (0.0,)), (0.7, (1.0,)))
_PAIR_C = _product((-0.3, (0.0,)), (-0.4, (1.0,)))


@pytest.mark.parametrize("w, estimate, excluded_by", [
    (_PAIR_A, lambda w, f: estimate_A1_constant(w, f), "w vanishes at [0.0]"),
    (_PAIR_A, lambda w, f: estimate_Apq_constant(w, 1.0, 2.0, f), "w vanishes at [0.0]"),
    (_PAIR_B, lambda w, f: estimate_Ap_constant(w, 2.0, f),
     "w has the factor PowerProfile(1.2999999999999998, 0.0) at infinity, whose power -1 "
     "is not locally integrable in dimension 1"),
    (_PAIR_C, lambda w, f: estimate_RH_constant(w, 1.5, f),
     "w has the factor PowerProfile(-0.7, 0.0) at infinity, whose power 1.5 is not "
     "locally integrable in dimension 1"),
    (_PAIR_C, lambda w, f: estimate_Apq_constant(w, 1.0, 2.0, f),
     "w has the factor PowerProfile(-0.7, 0.0) at infinity, whose power 2 is not "
     "locally integrable in dimension 1"),
], ids=["A_1-zero", "A_12-zero", "A_2-infinity", "RH_1.5-infinity", "A_12-infinity"])
def test_two_centre_products_outside_their_class(std_family, w, estimate, excluded_by):
    """Five classes that the exponents exclude, a zero at 0 or the exponent
    at infinity, although family maxima can read finite (A_2 of
    |x|^{0.6} |x - 1|^{0.7} 6.88 with q_w = 2.3, RH_1.5 of
    |x|^{-0.3} |x - 1|^{-0.4} 1.28 with r_w = 1/0.7).  The family is not
    evaluated."""
    rep = estimate(w, std_family)
    assert (rep.verdict, rep.constant, rep.worst_ball) == ("diverging", math.inf, None)
    assert rep.excluded_by == excluded_by


def test_log_weight_classes_from_the_exponents(std_family):
    """log(1/|x|)^{-1} vanishes at 0, so it is outside A_1; every finite
    power of it is locally integrable, so it is in A_2 and RH_4."""
    w = LogExampleWeight(1, -1.0)
    rep = estimate_A1_constant(w, std_family)
    assert rep.verdict == "diverging" and rep.excluded_by == "w vanishes at [0.0]"
    assert estimate_Ap_constant(w, 2.0, std_family).verdict == "finite"
    assert estimate_RH_constant(w, 4.0, std_family).verdict == "finite"


def test_finite_constants_read_exact_means_and_infima(std_family):
    """An admitted class is read in one pass over the family, and on the line
    every mean and infimum is exact.  The two-centre product's A_1 on the
    default family is within 1e-12 of 40-digit mpmath: it divides by the
    infimum at the ball end -6 of B(-2, 4).  Its A_2 and RH_1.2 constants
    are pinned bit for bit, within 2 ulp of 40-digit mpmath
    (1.6796045276686074 and 1.097169344276094).  The tabulated weight's
    constants are derived by hand from the five cells that meet
    B(0.3, 1) = (-0.7, 1.3), their lengths and values below."""
    from fractions import Fraction as F

    reps = [estimate_A1_constant(_PAIR_C, std_family),
            estimate_Ap_constant(_PAIR_C, 2.0, std_family),
            estimate_RH_constant(_PAIR_C, 1.2, std_family)]
    assert abs(reps[0].constant - 3.26768628956856388) <= 1e-12 * 3.26768628956856388
    assert reps[0].worst_ball.to_dict() == {"center": [-2.0], "radius": 4.0}
    assert [rep.constant for rep in reps[1:]] == [1.6796045276686071, 1.0971693442760941]
    grid = RegularGrid((-2.0,), (2.0,), (8,))
    w = TabulatedWeight(grid, np.array([1.0, 3.0, 0.5, 2.0, 4.0, 1.5, 0.25, 1.0]))
    fam = dyadic_ball_family([[0.0], [0.3]], -4, 0)
    reps = [estimate_A1_constant(w, fam), estimate_Ap_constant(w, 2.0, fam),
            estimate_RH_constant(w, 3.0, fam), estimate_Apq_constant(w, 1.5, 3.0, fam)]
    cells = [(F(1, 5), F(1, 2)), (F(1, 2), F(2)), (F(1, 2), F(4)), (F(1, 2), F(3, 2)),
             (F(3, 10), F(1, 4))]

    def avg(t):
        return sum(length * v**t for length, v in cells) / 2

    assert avg(1) == F(157, 80) and avg(-1) == F(277, 240)
    by_hand = [avg(1) / F(1, 4), avg(1) * avg(-1),
               float(avg(3)) ** (1 / 3) / float(avg(1)),
               (float(avg(3)) * float(avg(-3))) ** (1 / 3)]
    assert by_hand[0] == F(157, 20)
    for rep, value in zip(reps, by_hand):
        assert abs(rep.constant - float(value)) <= 1e-14 * float(value)
    assert all(rep.excluded_by is None and rep.worst_ball.to_dict() == {"center": [0.3],
                                                                         "radius": 1.0}
               for rep in reps)


_GAP = 1e-14
_INFIMUM_PRODUCTS = [
    _PAIR_C,
    ProductPowerWeight(((-0.2, (0.0,)), (-0.5, (0.3,)), (-0.25, (2.0,)))),
    # poles at the ends of B(0, 1/2), B(-1, 1/2) and B(2, 1) of the family
    ProductPowerWeight(((-0.7, (0.5,)), (-0.2, (-1.5,)), (-0.1, (3.0,))), scale=2.5),
    ProductPowerWeight(((-0.45, (0.0,)), (-0.45, (_GAP,)))),
]


def _mp_product_infimum(w, lo, hi):
    """The least value of w = scale * prod_i |x - c_i|^{a_i} (every a_i < 0)
    on [lo, hi] in mpmath: at the ends or at a real root in (lo, hi) of
    sum_i a_i prod_{j != i} (x - c_j), the numerator of (log w)'."""
    import mpmath as mp

    cs = [mp.mpf(c[0]) for _, c in w.factors]
    numerator = [mp.mpf(0)] * len(cs)
    for i, (a, _) in enumerate(w.factors):
        poly = [mp.mpf(1)]
        for j, c in enumerate(cs):
            if j != i:
                poly = [p - c * q for p, q in zip(poly + [0], [0] + poly)]
        numerator = [n + a * p for n, p in zip(numerator, poly)]
    roots = mp.polyroots(numerator, maxsteps=200, extraprec=200) if len(cs) > 1 else []
    points = [mp.mpf(lo), mp.mpf(hi)] + [r.real for r in roots
                                         if abs(r.imag) < mp.mpf(10) ** -30 and lo < r.real < hi]
    return min(mp.inf if x in cs else mp.mpf(w.scale) * mp.fprod(
        abs(x - c) ** a for c, (a, _) in zip(cs, w.factors)) for x in points)


@pytest.mark.parametrize("w", _INFIMUM_PRODUCTS, ids=["two", "three", "end-at-pole", "gap"])
def test_product_infimum_on_the_line_matches_mpmath(w, std_family):
    """A product's infimum on the line is exact (``_product_minimizers``):
    within 1e-12 of 40-digit mpmath on every ball of the default family,
    for two and three centres, poles at ball ends and centres 1e-14 apart."""
    import mpmath as mp

    from rieszkit.weights import essential_infimum

    with mp.workdps(40):
        for ball in std_family:
            lo, hi = (float(ball.center[0] + t * ball.radius) for t in (-1.0, 1.0))
            exact = float(_mp_product_infimum(w, lo, hi))
            got = essential_infimum(w, ball)
            assert abs(got - exact) <= 1e-12 * exact


def test_no_weight_reads_a_lattice(monkeypatch, std_family):
    """No weight reads cells: with ``quadrature.integrate_ball``,
    ``integrate_disk`` and ``integrate_cells_1d`` made to raise, the four
    estimators still read a two-centre product on the line and in the plane
    and tabulated weights on the line and in the plane, and
    ``essential_infimum`` reads the plane products."""
    from rieszkit import quadrature, weights

    def refuse(*args, **kwargs):
        raise AssertionError("a weight read the cell rule")

    for name in ("integrate_ball", "integrate_disk", "integrate_cells_1d"):
        monkeypatch.setattr(quadrature, name, refuse)
    tab = TabulatedWeight(RegularGrid((-20.0,), (20.0,), (16,)), np.linspace(1.0, 4.0, 16))
    plane = TabulatedWeight(RegularGrid((-20.0, -20.0), (20.0, 20.0), (8, 8)),
                            np.linspace(1.0, 4.0, 64))
    for w, family in ((_PAIR_C, std_family), (tab, std_family),
                      (plane, default_ball_family(2)),
                      (_PLANE_PRODUCTS[0], dyadic_ball_family([[0.0, 0.0], [0.0, 1.0]], -1, 2))):
        reps = [estimate_A1_constant(w, family), estimate_Ap_constant(w, 2.0, family),
                estimate_Apq_constant(w, 1.0, 1.2, family),
                estimate_RH_constant(w, 1.2, family)]
        assert all(rep.verdict == "finite" and rep.constant >= 1.0 for rep in reps)
    for w in _PLANE_PRODUCTS:
        for ball in default_ball_family(2):
            assert 0.0 < weights.essential_infimum(w, ball) < math.inf


def test_line_product_infimum_refuses_a_positive_exponent():
    """The exact infimum of a product on the line assumes every exponent
    negative; a product with a zero is refused, whether or not the ball
    holds it (``class_exclusion`` keeps the estimators from asking)."""
    from rieszkit.weights import essential_infimum

    for ball in (Ball([0.5], 1.0), Ball([5.0], 1.0)):
        with pytest.raises(ValueError, match="every exponent negative"):
            essential_infimum(_PAIR_A, ball)


_PLANE_PRODUCTS = [
    ProductPowerWeight(((-0.5, (0.0, 0.0)), (-0.3, (1.0, 0.0))), dimension=2),
    ProductPowerWeight(((-0.4, (0.5, 0.5)), (-0.7, (-1.0, 0.25)), (-0.2, (2.0, -1.0))),
                       dimension=2, scale=2.5),
    # (0.5, 0) lies on the circles of B(0, 1/2) and B((1, 0), 1/2), (0, 1.5)
    # on that of B((0, 1), 1/2) and (-1, 0) on those of B(0, 1) and B((-1, -1), 1)
    ProductPowerWeight(((-0.6, (0.5, 0.0)), (-0.3, (-1.0, 0.0)), (-0.2, (0.0, 1.5))),
                       dimension=2),
]


def _mp_circle_infimum(w, ball):
    """The least value of w = scale * prod_i |x - c_i|^{a_i} (every a_i < 0)
    on the circle bounding ``ball``, at the working precision: each local
    minimum of w on a float scan of 4096 angles is refined in mpmath by a
    bracketing root search for d/dtheta log w = sum_i a_i (v_i,x sin theta -
    v_i,y cos theta) / |x - c_i|^2, v_i = c_i - centre."""
    import mpmath as mp

    m = 4096
    theta = 2.0 * math.pi * np.arange(m) / m
    circle = ball.center + ball.radius * np.column_stack([np.cos(theta), np.sin(theta)])
    with np.errstate(divide="ignore"):
        scan = eval_weight_batch(w, circle, extended=True)
    r = mp.mpf(float(ball.radius))
    vs = [(mp.mpf(c[0]) - mp.mpf(float(ball.center[0])),
           mp.mpf(c[1]) - mp.mpf(float(ball.center[1]))) for _, c in w.factors]
    es = [mp.mpf(a) for a, _ in w.factors]

    def sq(t, v):
        return (r * mp.cos(t) - v[0]) ** 2 + (r * mp.sin(t) - v[1]) ** 2

    def value(t):
        return mp.mpf(w.scale) * mp.fprod(sq(t, v) ** (a / 2) for a, v in zip(es, vs))

    def slope(t):
        return mp.fsum(a * (v[0] * mp.sin(t) - v[1] * mp.cos(t)) / sq(t, v)
                       for a, v in zip(es, vs))

    best = mp.inf
    for i in np.nonzero((scan <= np.roll(scan, 1)) & (scan <= np.roll(scan, -1)))[0]:
        a, b = (mp.mpf(2) * mp.pi * (int(i) + k) / m for k in (-1, 1))
        t = mp.mpf(2) * mp.pi * int(i) / m
        if slope(a) < 0 < slope(b):
            t = mp.findroot(slope, (a, b), solver="anderson")
        best = min(best, value(t))
    return best


@pytest.mark.parametrize("w", _PLANE_PRODUCTS, ids=["two", "three", "on-circle"])
def test_product_infimum_in_the_plane_matches_mpmath(w):
    """A product's infimum in the plane is exact (``_product_minimizers``):
    within 1e-12 of 40-digit mpmath on every disk of the default family, for
    two and three centres and centres on a disk's circle."""
    import mpmath as mp

    from rieszkit.weights import essential_infimum

    with mp.workdps(40):
        for ball in default_ball_family(2):
            exact = float(_mp_circle_infimum(w, ball))
            assert abs(essential_infimum(w, ball) - exact) <= 1e-12 * exact


def test_plane_product_infimum_refuses_a_positive_exponent():
    """In the plane as on the line, the exact infimum of a product assumes
    every exponent negative."""
    from rieszkit.weights import essential_infimum

    w = ProductPowerWeight(((0.3, (0.0, 0.0)), (-0.4, (1.0, 0.0))), dimension=2)
    for ball in (Ball([0.5, 0.0], 1.0), Ball([5.0, 5.0], 1.0)):
        with pytest.raises(ValueError, match="every exponent negative"):
            essential_infimum(w, ball)


def _disk_integral(factors, center, radius):
    from rieszkit.plane_integral import log_disk_integral

    return log_disk_integral([(np.array(c), b) for c, b in factors], np.array(center), radius)


def test_disk_integral_of_one_factor_matches_the_radial_rule():
    """One factor |x - c|^b over a disk reads ``log_ball_integral`` to 1e-14,
    with the centre off the disk, inside it, on its circle, 1e-6 inside and
    1e-9 outside it, 1e-12 from its centre, and for b from -1.9 to 8."""
    from rieszkit.quadrature import log_ball_integral, radial_profile

    cases = [(c, c0, 2.0**k, b) for c in ((0.0, 0.0), (1.0, 0.0), (0.3, -0.7), (-2.0, 5.0))
             for c0 in ((0.0, 0.0), (0.0, 1.0), (-1.0, -1.0)) for k in (-8, 0, 4)
             for b in (-1.9, -0.5, 3.0) if c != c0]
    cases += [((1.0, 0.0), (0.0, 0.0), r, b) for r in (1.0, 1.0 - 1e-6, 1.0 + 1e-9)
              for b in (-1.9, -1.4, 0.7, 8.0)]
    cases += [((0.6, 0.8), (0.0, 0.0), 1.0, -1.9), ((1e-12, 0.0), (0.0, 0.0), 3.0, -1.9)]
    for c, c0, r, b in cases:
        exact = log_ball_integral(radial_profile(b, 0.0), np.subtract(c0, c), r)
        got = _disk_integral([(c, b)], c0, r)
        assert abs(got - exact) <= 1e-14 * max(1.0, abs(exact)), (c, c0, r, b)


def test_disk_integral_dilates_exactly():
    """B(2^k c, 2^k R) with centres 2^k c_i reads log I + k (2 + sum b) log 2."""
    factors = [((0.5, 0.5), -0.4), ((-1.0, 0.25), -0.7), ((2.0, -1.0), 1.3)]
    for c0, r in (((0.0, 1.0), 0.5), ((1.0, 0.0), 1.0), ((-1.0, -1.0), 4.0)):
        base = _disk_integral(factors, c0, r)
        for k in (-20, 5):
            scaled = [(tuple(2.0**k * v for v in c), b) for c, b in factors]
            got = _disk_integral(scaled, tuple(2.0**k * v for v in c0), 2.0**k * r)
            exact = base + k * (2.0 + sum(b for _, b in factors)) * math.log(2.0)
            assert abs(got - exact) <= 1e-14 * max(1.0, abs(exact)), (c0, r, k)


def _mp_disk_integral(factors, center, radius, pole):
    """The integral over B(center, radius) of prod |x - c_i|^{b_i} in polar
    coordinates about the centre c_pole inside the disk, split at the other
    centres' angles and, along each ray, at their closest approach (mpmath)."""
    import mpmath as mp

    (px, py), bp = [mp.mpf(v) for v in factors[pole][0]], mp.mpf(factors[pole][1])
    others = [([mp.mpf(v) for v in c], mp.mpf(b)) for i, (c, b) in enumerate(factors)
              if i != pole]
    dx, dy, r = px - mp.mpf(center[0]), py - mp.mpf(center[1]), mp.mpf(radius)
    polar = [(mp.atan2(c[1] - py, c[0] - px), mp.hypot(c[0] - px, c[1] - py)) for c, _ in others]

    def ray(th):
        ex, ey = mp.cos(th), mp.sin(th)
        de = dx * ex + dy * ey
        top = -de + mp.sqrt(de * de + r * r - dx * dx - dy * dy)
        cuts = sorted(t for t in (d * mp.cos(th - a) for a, d in polar) if 0 < t < top)

        def f(s):
            return s ** (1 + bp) * mp.fprod(mp.hypot(px + s * ex - c[0], py + s * ey - c[1]) ** b
                                            for c, b in others)

        return mp.quad(f, [0] + cuts + [top])

    marks = sorted({mp.mpf(0)} | {a % (2 * mp.pi) for a, _ in polar})
    return mp.log(mp.quad(ray, marks + [2 * mp.pi]))


@pytest.mark.parametrize("factors, center, radius, pole", [
    ([((0.0, 0.0), -1.0), ((1.0, 0.0), -0.6)], (1.0, 0.0), 1.0, 1),
    ([((0.5, 0.5), -0.4), ((-1.0, 0.25), -0.7), ((2.0, -1.0), -0.2)], (0.0, 1.0), 1.0, 0),
    ([((0.25, 0.25), -0.5), ((2.0, 2.0), -1.2)], (0.0, 0.0), 1.0, 0),
], ids=["on-circle", "three", "one-ray"])
def test_disk_integral_matches_mpmath(factors, center, radius, pole):
    """Two centres, one on the disk's circle; three centres; two centres on
    one ray from the disk's centre, which share one angular mark: within
    1e-12 of mpmath in polar coordinates about a centre inside the disk."""
    import mpmath as mp

    with mp.workdps(16):
        exact = float(_mp_disk_integral(factors, center, radius, pole))
    assert abs(_disk_integral(factors, center, radius) - exact) <= 1e-12 * abs(exact)


def test_disk_integral_converges_in_its_panels(monkeypatch):
    """Splitting every panel in two, in angle and along the rays, moves no
    log integral of the plane products by more than 1e-13, on a subsample
    of the default 2-D family (every radius and centre, and the unit disks
    about 0 and (1, 0), whose circles pass through the other centre) for
    s = 2, where the exponents are the most negative.  The angles take
    ``graded_panels`` directly and the rays through the line's panel stage,
    so both bindings are split."""
    from rieszkit import panels, plane_integral

    graded_panels, calls = panels.graded_panels, []
    family = default_ball_family(2).balls
    balls = family[4::9] + (family[8], family[21])
    forms = [[(c, 2.0 * a) for a, c in w.factors] for w in _PLANE_PRODUCTS]
    base = [[_disk_integral(f, b.center, b.radius) for b in balls] for f in forms]

    def split(*args):
        calls.append(args[0].size)
        owner, lo, hi = graded_panels(*args)
        mid = lo + 0.5 * (hi - lo)
        return np.repeat(owner, 2), np.ravel([lo, mid], "F"), np.ravel([mid, hi], "F")

    monkeypatch.setattr(plane_integral, "graded_panels", split)
    monkeypatch.setattr(panels, "graded_panels", split)
    for f, row in zip(forms, base):
        for b, value in zip(balls, row):
            got = _disk_integral(f, b.center, b.radius)
            assert abs(got - value) <= 1e-13 * max(1.0, abs(value))
    # every integral split its angles and at least one block of rays
    assert len(calls) >= 2 * len(forms) * len(balls)


def test_disk_integral_reads_to_1e13_up_to_its_power_bound():
    """One factor |x - c|^b at b = ``MAX_POWER`` = 40 reads
    ``log_ball_integral`` to 1e-13 on the disks of the radial-rule test
    above (worst 4.3e-14; 5.5e-16 at b = 24 and 1.3e-14 at 32).  At b = 48
    the worst read 1.6e-12 and at 64 2.5e-11, because the angles take no
    fast-power cut, so past the bound the disk rule refuses at
    ``weight.factors``."""
    from rieszkit.errors import ConfigError
    from rieszkit.plane_integral import MAX_POWER
    from rieszkit.quadrature import log_ball_integral, radial_profile

    disks = [(c, c0, 2.0**k) for c in ((0.0, 0.0), (1.0, 0.0), (0.3, -0.7), (-2.0, 5.0))
             for c0 in ((0.0, 0.0), (0.0, 1.0), (-1.0, -1.0)) for k in (-8, 0, 4) if c != c0]
    disks += [((1.0, 0.0), (0.0, 0.0), r) for r in (1.0, 1.0 - 1e-6, 1.0 + 1e-9)]
    disks += [((0.6, 0.8), (0.0, 0.0), 1.0), ((1e-12, 0.0), (0.0, 0.0), 3.0)]
    assert MAX_POWER == 40.0
    for c, c0, r in disks:
        exact = log_ball_integral(radial_profile(MAX_POWER, 0.0), np.subtract(c0, c), r)
        got = _disk_integral([(c, MAX_POWER)], c0, r)
        assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact)), (c, c0, r)
    for factors in ([((1.0, 0.0), 48.0)], [((1.0, 0.0), 20.0), ((0.0, 2.0), -20.5)]):
        with pytest.raises(ConfigError) as exc:
            _disk_integral(factors, (0.0, 0.0), 1.0)
        assert exc.value.path == "weight.factors"
    # a factor at the disk's centre joins the Jacobian and counts for nothing
    assert math.isfinite(_disk_integral([((0.0, 0.0), 60.0), ((1.0, 0.0), 1.0)], (0.0, 0.0), 1.0))


def test_disk_integral_peaks_under_12_mb():
    """The line's panel stage weights the rays' nodes in blocks of panels,
    and the rays come in blocks of angular panels, so one integral of the
    bundled plane product over B((0, 1), 2) peaks at most at 12 MB under
    tracemalloc (3.2 MB measured; 48.9 MB when every node was weighted at
    once)."""
    import tracemalloc

    tracemalloc.start()
    try:
        _disk_integral([((0.0, 0.0), -0.5), ((1.0, 0.0), -0.3)], (0.0, 1.0), 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6, peak


#: 8 x 8 cells of width 5 on [-20, 20]^2, nodes at multiples of 5
_PLANE_GRID = RegularGrid((-20.0, -20.0), (20.0, 20.0), (8, 8))


def test_plane_tabulated_areas_match_hand_values():
    """|cell & B| in closed form: four quarter disks around a grid node, a
    cell wholly inside the disk at its own area, the areas summing to
    pi r^2, and a disk tangent to its cell's sides inside that cell alone;
    the infimum is exactly the least value of the cells that meet the disk,
    and the mean is sum_j |cell_j & B| v_j / (pi r^2)."""
    from rieszkit.weights import _grid_cells, essential_infimum

    values = (np.arange(64.0) * 37.0 % 64.0 + 1.0).reshape(8, 8)
    w = TabulatedWeight(_PLANE_GRID, values)
    areas, vals = _grid_cells(w, Ball([0.0, 0.0], 2.0))
    np.testing.assert_allclose(areas, np.full(4, math.pi), rtol=1e-13, atol=0.0)
    assert sorted(vals) == sorted(values[3:5, 3:5].ravel())
    assert essential_infimum(w, Ball([0.0, 0.0], 2.0)) == np.min(values[3:5, 3:5])
    ball = Ball([2.5, 2.5], 4.0)
    areas, vals = _grid_cells(w, ball)
    assert areas.size == 9
    assert abs(areas[4] - 25.0) <= 1e-13 * 25.0
    assert abs(np.sum(areas) - 16.0 * math.pi) <= 1e-13 * 16.0 * math.pi
    assert essential_infimum(w, ball) == np.min(values[3:6, 3:6])
    mean = np.sum(areas * vals) / (16.0 * math.pi)
    assert power_mean(w, 1.0, ball) == pytest.approx(mean, rel=1e-13)
    # tangent to the sides of the cell [0, 5]^2, whose neighbours are smaller
    values = np.full((8, 8), 1.0)
    values[4, 4] = 7.0
    areas, vals = _grid_cells(TabulatedWeight(_PLANE_GRID, values), Ball([2.5, 2.5], 2.5))
    assert vals.tolist() == [7.0]
    assert abs(areas[0] - 6.25 * math.pi) <= 1e-13 * 6.25 * math.pi
    assert essential_infimum(TabulatedWeight(_PLANE_GRID, values), Ball([2.5, 2.5], 2.5)) == 7.0
    # past the corner (0, 0) by 1e-15 relative: the diagonal cell meets the
    # disk, its area rounds to 0, and it counts for the infimum
    values[3, 3] = 0.5
    w = TabulatedWeight(_PLANE_GRID, values)
    ball = Ball([2.5, 2.5], math.hypot(2.5, 2.5) * (1 + 1e-15))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert essential_infimum(w, ball) == 0.5
        assert 1.0 < power_mean(w, 1.0, ball) < 7.0


@pytest.mark.parametrize("center, radius", [((0.3, -1.7), 0.37), ((0.0, 0.0), 1.0),
                                            ((-2.5, 4.0), 3.0)])
def test_plane_tabulated_areas_sum_to_the_disk_by_a_grid_line(center, radius):
    """The cells' areas |cell & B| sum to pi r^2 within 1e-15 relative when a
    grid line lies 0, 1, 2, 8 or 1000 ulps inside the circle: F(u) reads
    arctan2(u, sqrt(r^2 - u^2)), well conditioned at u = +-r, where
    arcsin(u / r) read pi r^2 (1 + 7.3e-10) at 1 ulp on B((0.3, -1.7), r)."""
    from rieszkit.weights import _grid_cells

    x, y = center
    grid = RegularGrid((x - 4.0, y - 4.0), (x + 4.0, y + 4.0), (64, 64))
    w = TabulatedWeight(grid, np.ones(64 * 64))
    # the grid line nearest the circle's right end, as ``_grid_cells`` forms it
    edges = np.linspace(grid.lo[0], grid.hi[0], 65) - x
    line = edges[np.argmin(np.abs(edges - radius))]
    for ulps in (0, 1, 2, 8, 1000):
        r = line
        for _ in range(ulps):
            r = np.nextafter(r, math.inf)
        areas, _ = _grid_cells(w, Ball([x, y], r))
        assert abs(np.sum(areas) / (math.pi * r * r) - 1.0) <= 1e-15, ulps


def test_plane_tabulated_disk_leaving_the_grid_raises():
    """A disk whose bounding box leaves the grid by half a cell raises
    OutOfGrid at ``weight.grid``, for means and infima alike."""
    from rieszkit.weights import essential_infimum

    w = TabulatedWeight(_PLANE_GRID, np.ones(64))
    for ball in (Ball([18.0, 0.0], 4.5), Ball([0.0, -18.0], 4.5)):
        for read in (lambda: power_mean(w, 2.0, ball), lambda: essential_infimum(w, ball)):
            with pytest.raises(OutOfGrid) as exc:
                read()
            assert exc.value.path == "weight.grid"


def test_factors_merge_only_at_equal_centres(std_family):
    """Factors merge only at one centre: centres 1e-14 apart stay two
    factors.  So |x|^0.45 |x - 1e-14|^-0.45 vanishes at 0 (outside A_1) and
    has q_w = 1.45 and r_w = 1 / 0.45, and |x|^-0.6 |x - 1e-14|^-0.6, whose
    factors are each locally integrable, is a weight."""
    w = ProductPowerWeight(((0.45, (0.0,)), (-0.45, (_GAP,))))
    assert len(radial_factors(w)[1]) == 2
    assert estimate_A1_constant(w, std_family).excluded_by == "w vanishes at [0.0]"
    idx = critical_indices(w)
    assert idx.q_critical == pytest.approx(1.45, rel=1e-15)
    assert idx.rh_critical == pytest.approx(1.0 / 0.45, rel=1e-15)
    assert weighted_measure(ProductPowerWeight(((-0.6, (0.0,)), (-0.6, (_GAP,)))), 1.0,
                            Ball([0.5], 1.0)) > 0.0


# ---------------------------------------------------------------------------
# critical indices
# ---------------------------------------------------------------------------


def test_critical_indices_unit_weight(std_family):
    idx = critical_indices(PowerWeight(0.0), std_family)
    assert idx.q_critical == 1.0
    assert math.isinf(idx.rh_critical)


def test_critical_indices_power_examples(std_family):
    idx = critical_indices(PowerWeight(0.5), std_family)
    assert idx.q_critical == 1.5
    assert math.isinf(idx.rh_critical)
    idx = critical_indices(PowerWeight(-0.125), std_family)
    assert idx.rh_critical == 8.0
    assert idx.q_critical == 1.0


@pytest.mark.parametrize("a", [-1.0 / 3.0, 0.0, 0.5])
def test_critical_index_formula(a, std_family):
    idx = critical_indices(PowerWeight(a), std_family)
    assert idx.q_critical == max(1.0, 1.0 + a)


@pytest.mark.parametrize("a, n, q, r", [(0.5, 1, 1.5, math.inf), (0.5, 2, 1.25, math.inf),
                                        (0.0, 2, 1.0, math.inf), (-0.125, 1, 1.0, 8.0),
                                        (-0.5, 2, 1.0, 4.0)],
                         ids=["line-q", "plane-q", "plane-unit", "line-r", "plane-r"])
def test_critical_indices_of_power_weights_in_closed_form(a, n, q, r):
    """|x|^a on R^n is in A_q exactly for -n < a < n (q - 1), and in RH_s
    exactly for a s > -n when a < 0: q_w = max(1, 1 + a/n) and r_w = -n/a.
    No family is needed, and none is read."""
    idx = critical_indices(PowerWeight(a, dimension=n))
    assert (idx.q_critical, idx.rh_critical) == (q, r)
    assert idx.rh_conjugate() == (1.0 if math.isinf(r) else r / (r - 1.0))


def test_critical_indices_of_log_and_tabulated_weights():
    """A tabulated weight is bounded above and below, and the log weight is
    A_1-like for every power: q_w = 1 and r_w = inf."""
    grid = RegularGrid((0.0,), (1.0,), (2,))
    for w in (LogExampleWeight(), LogExampleWeight(power=-2.0), LogExampleWeight(dimension=2),
              TabulatedWeight(grid, np.array([1.0, 5.0]))):
        idx = critical_indices(w)
        assert (idx.q_critical, idx.rh_critical) == (1.0, math.inf)


def test_critical_indices_round_to_the_safe_side():
    """q_w is rounded up and r_w down from the exact exponent, and an index
    past the float range reads inf instead of raising OverflowError."""
    assert critical_indices(PowerWeight(1e-300)).q_critical == math.nextafter(1.0, 2.0)
    assert critical_indices(PowerWeight(-1e-300)).rh_critical <= 1e300
    assert math.isinf(critical_indices(PowerWeight(-5e-324)).rh_critical)
    w = ProductPowerWeight(((1e308, (0.0,)), (1e308, (1.0,))))
    assert math.isinf(critical_indices(w).q_critical)


def _ratio_on(w, a, b, k):
    """M_a / M_b of w on B(0, 2^k), as the class estimators form it."""
    ball = Ball([0.0], 2.0**k)
    return power_mean(w, a, ball) / power_mean(w, b, ball)


def test_two_centre_product_index_is_set_at_infinity():
    """|x|^{0.6} |x - 1|^{0.7} is |x|^{1.3} at infinity, so it is in A_q
    exactly for q > 2.3, although each factor is in A_2.  A finite family
    cannot see this: the A_2 ratio on B(0, 2^k) keeps growing with k, while
    the A_2.4 ratio levels off.  At p = 1/2 the atoms then need
    floor(2.3 / 0.5 - 1) = 3 vanishing moments, not the 2 of q = 1.7."""
    w = ProductPowerWeight(((0.6, (0.0,)), (0.7, (1.0,))))
    idx = critical_indices(w)
    assert idx.q_critical == pytest.approx(2.3, rel=1e-15) and idx.q_critical >= 2.3
    assert math.isinf(idx.rh_critical)
    # per 4 octaves the A_2 ratio (2.13, 6.65, 17.3, 32.5) gains more and more,
    # the A_2.4 ratio (1.77, 3.83, 5.85, 6.95) less and less
    a2 = np.diff([_ratio_on(w, 1.0, -1.0, k) for k in (0, 4, 8, 12)])
    a24 = np.diff([_ratio_on(w, 1.0, -1.0 / 1.4, k) for k in (0, 4, 8, 12)])
    assert np.all(np.diff(a2) > 0.0) and np.all(np.diff(a24) < 0.0) and np.all(a24 > 0.0)
    from rieszkit import atom_class

    assert atom_class(w, 0.5, None)[2:] == (3, 3)


def test_two_centre_product_outside_a_infinity():
    """|x|^{-1/2} |x - 1|^{-1/2} is |x|^{-1} at infinity, a sum S = -n: it is
    in no A_q and in no RH_r with r > 1 (its RH_1.5 ratio on B(0, 2^k)
    grows without bound), so ``atom_class``'s A_infinity audit fails."""
    w = ProductPowerWeight(((-0.5, (0.0,)), (-0.5, (1.0,))))
    idx = critical_indices(w)
    assert (idx.q_critical, idx.rh_critical, idx.rh_conjugate()) == (math.inf, 1.0, math.inf)
    rh = [_ratio_on(w, 1.5, 1.0, k) for k in (0, 4, 8, 12)]
    assert rh == sorted(rh) and rh[-1] > 4.0 * rh[0]
    from rieszkit import atom_class

    audit, _, d_min, d = atom_class(w, 0.5, None)
    assert not audit.passed and d_min is None and d is None
    assert audit.detail == "q_critical = inf (no A_q up to 256)"


def test_critical_indices_rh_above_cap_is_inf(std_family):
    """|x|^260 is in no A_q up to 256 (``weights.AP_CAP``) and in every RH_s.
    The estimators agree at those exponents on the default family: the
    plain averages on the 2^-8 balls (~2^-2080) stay finite as logarithms,
    so RH_1024 divides by no underflowed 0 and reads finite, and A_256
    reads diverging."""
    w = PowerWeight(260.0)
    idx = critical_indices(w, std_family)
    assert math.isinf(idx.q_critical) and math.isinf(idx.rh_critical)
    assert estimate_Ap_constant(w, 256.0, std_family).verdict == "diverging"
    rep = estimate_RH_constant(w, 1024.0, std_family)
    assert rep.verdict == "finite" and 1.0 <= rep.constant < math.inf


def test_critical_indices_in_dimension_two_rh_near_cap_of_circle():
    """|x|^{-1/2} in the plane is in RH_s exactly for s < 4; the default
    family has disks whose circle passes through the singular point, where
    RH_s just below 4 integrates r^(g-1) with g = 2 - s/2 close to 0.  The
    estimator reads finite there and diverging just above 4."""
    w, fam = PowerWeight(-0.5, dimension=2), default_ball_family(2)
    idx = critical_indices(w, fam)
    assert (idx.q_critical, idx.rh_critical) == (1.0, 4.0)
    for s in (3.99, 3.999):
        assert estimate_RH_constant(w, s, fam).verdict == "finite", s
    assert estimate_RH_constant(w, 4.01, fam).verdict == "diverging"


def test_critical_indices_in_dimension_two():
    """|x|^{1/2} in the plane is in A_q exactly for q > 1 + a/n = 1.25; the
    estimator reads that on either side of 1.25."""
    w = PowerWeight(0.5, dimension=2)
    fam = dyadic_ball_family([[0.0, 0.0], [1.0, 0.0]], -4, 0)
    idx = critical_indices(w, fam)
    assert idx.q_critical == 1.25 and math.isinf(idx.rh_critical)
    assert estimate_Ap_constant(w, 1.24, fam).verdict == "diverging"
    assert estimate_Ap_constant(w, 1.26, fam).verdict == "finite"


# ---------------------------------------------------------------------------
# matrix compatibility and doubling
# ---------------------------------------------------------------------------


def test_matrix_compatibility_examples():
    fam = scalar_family([1.0, -1.0])
    assert check_matrix_compatibility(PowerWeight(0.0), fam) == (1.0, None)
    assert check_matrix_compatibility(PowerWeight(0.5), fam) == (1.0, None)
    # orthogonal matrices leave |x| invariant
    rot = MatrixFamilyRotation()
    assert check_matrix_compatibility(PowerWeight(0.25, dimension=2), rot)[0] == pytest.approx(1.0)


def test_matrix_compatibility_reads_huge_powers_exactly():
    """|x|^{220} and |x|^{260} underflow to 0 near the origin, where a
    sampled w(-x)/w(x) reads 0/0; but w(-x) = w(x), so C is exactly 1."""
    fam = scalar_family([1.0, -1.0])
    for a in (220.0, 260.0):
        assert check_matrix_compatibility(PowerWeight(a), fam) == (1.0, None)


def _product(*factors):
    return ProductPowerWeight(tuple((a, [c]) for a, c in factors))


@pytest.mark.parametrize("w, lams", [
    (PowerWeight(0.5), (1.0, -1.0, 2.0, -0.5, 3.0)),
    (PowerWeight(-0.5), (0.25, -4.0, 1.0 / 3.0)),
    (_product((0.3, 0.0), (0.2, 0.0)), (2.0, -0.5, 3.0, -1.0)),
    (_product((0.4, 0.0), (0.2, 1.0), (0.2, -1.0)), (1.0, -1.0)),
    (_product((-0.3, 1.0), (-0.3, -1.0)), (-1.0,)),
    (_product((0.7, 0.0), (-0.2, 0.0)), (5.0, -0.2)),
], ids=["power", "pole", "two-factors-one-centre", "three-centres", "two-poles", "net-power"])
def test_matrix_compatibility_on_the_line_is_the_dilation_factor(w, lams):
    """When the factors are invariant under c -> c / lambda, w(lambda x) =
    |lambda|^S w(x) for every x (S the sum of the exponents): C is |lambda|^S
    to 1e-15, and a dense scan of w(lambda x) / w(x) reads it everywhere."""
    total = sum(a for a, _ in w.factors) if isinstance(w, ProductPowerWeight) else w.exponent
    x = np.random.default_rng(7).uniform(-8.0, 8.0, 10**4)[:, None]
    for lam in lams:
        comp, detail = check_matrix_compatibility(w, scalar_family([lam]))
        assert detail is None
        assert comp == pytest.approx(abs(lam) ** total, rel=1e-15, abs=0.0)
        ratio = eval_weight_batch(w, lam * x) / eval_weight_batch(w, x)
        np.testing.assert_allclose(ratio, comp, rtol=1e-13, atol=0.0)
    comp = check_matrix_compatibility(w, scalar_family(lams))[0]
    assert comp == pytest.approx(max(abs(lam) ** total for lam in lams), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("w, lams, detail", [
    (_product((-0.25, 1.0)), (1.0, -1.0), "w(A_1 x)/w(x) grows like |x - m|^-0.25 at m = -1"),
    (_product((-0.25, 1.0)), (1.0, 2.0), "w(A_1 x)/w(x) grows like |x - m|^-0.25 at m = 0.5"),
    (_product((0.5, 1.0)), (1.0, -1.0), "w(A_1 x)/w(x) grows like |x - m|^-0.5 at m = 1"),
    (_product((0.2, 1.0), (0.3, -1.0)), (1.0, -1.0),
     "w(A_1 x)/w(x) grows like |x - m|^-0.1 at m = -1"),
    (_product((-0.125, 1.0)), (1.0, -1.0),
     "w(A_1 x)/w(x) grows like |x - m|^-0.125 at m = -1"),
    (_product((-0.45, 0.0), (-0.45, 1e-14)), (1.0, -1.0),
     "w(A_1 x)/w(x) grows like |x - m|^-0.45 at m = -1e-14"),
], ids=["pole-reflected", "pole-dilated", "zero-reflected", "two-centres", "ta-pole", "gap"])
def test_matrix_compatibility_names_an_unbounded_ratio(w, lams, detail):
    """A factor set that c -> c / lambda does not preserve leaves a point m
    where w(lambda x) / w(x) grows like |x - m|^{e(m)}, e(m) < 0: C = inf and
    the detail names the matrix (0-based), m and e(m).  Marks match exactly,
    so centres 1e-14 apart are two marks."""
    assert check_matrix_compatibility(w, scalar_family(lams)) == (math.inf, detail)


def _mp_log_sup(power, lam):
    """sup_x L(|lam x|)^power / L(|x|)^power, L(r) = max(1, log(1/r)), by a
    golden-section search in t = log |x| at 40 digits (the ratio rises to
    one peak and is flat beyond it)."""
    import mpmath as mp

    with mp.workdps(40):
        def f(t):
            return (max(1, -(t + mp.log(abs(lam)))) / max(1, -t)) ** power

        a, b = mp.mpf(-40), mp.mpf(40)
        g = (mp.sqrt(5) - 1) / 2
        for _ in range(400):
            c, d = b - g * (b - a), a + g * (b - a)
            if f(c) >= f(d):
                b = d
            else:
                a = c
        return float(f((a + b) / 2))


@pytest.mark.parametrize("power, lams", [(1.0, (1.0, 0.5)), (-1.0, (1.0, 2.0)),
                                         (2.0, (1.0, 0.1)), (0.5, (3.0, -0.25)),
                                         (-3.0, (0.5, -7.0))])
def test_matrix_compatibility_of_the_log_weight_matches_mpmath(power, lams):
    """The log factor at 0 peaks at (1 + log(1/|lambda|))^s for s > 0 and
    |lambda| < 1, and at (1 + log |lambda|)^{-s} for s < 0 and |lambda| > 1:
    1 + log 2 for {1, 1/2} and log^{-1} under {1, 2}, (1 + log 10)^2 for
    log^2 under {1, 0.1}."""
    comp, detail = check_matrix_compatibility(LogExampleWeight(power=power),
                                              scalar_family(lams))
    assert detail is None
    assert comp == pytest.approx(max(_mp_log_sup(power, lam) for lam in lams), rel=1e-12)


def test_matrix_compatibility_in_the_plane():
    """One centre: w(Ax)/w(x) = (|Au| / |u|)^a takes sigma_max^a (a > 0) or
    sigma_min^a (a < 0) in some direction, as a scan of 10^5 directions
    reads.  Two centres under a non-similarity give an upper bound."""
    a = np.array([[2.0, 0.3], [0.0, 0.5]])
    fam = MatrixFamily((a,))
    theta = np.linspace(0.0, math.pi, 10**5)
    u = np.column_stack([np.cos(theta), np.sin(theta)])
    for exponent, expected in ((0.25, 1.1927323854983949), (-0.5, 1.4226105434166918)):
        w = PowerWeight(exponent, dimension=2)
        comp, detail = check_matrix_compatibility(w, fam)
        assert detail is None and comp == pytest.approx(expected, rel=1e-12)
        scan = np.max(eval_weight_batch(w, u @ a.T) / eval_weight_batch(w, u))
        assert scan <= comp * (1.0 + 1e-14) and scan == pytest.approx(comp, rel=1e-9)
    # diag(-1, 3) swaps the centres (+-1, 0)
    w = ProductPowerWeight(((0.25, [1.0, 0.0]), (0.25, [-1.0, 0.0])), dimension=2)
    comp, detail = check_matrix_compatibility(w, MatrixFamily((np.diag([-1.0, 3.0]),)))
    assert detail is None and comp == pytest.approx(3.0**0.5, rel=1e-15)
    g = np.linspace(-7.9, 8.1, 301)
    pts = np.column_stack([np.repeat(g, g.size), np.tile(g, g.size)])
    ratio = eval_weight_batch(w, pts * [-1.0, 3.0]) / eval_weight_batch(w, pts)
    assert np.max(ratio) <= comp


def test_matrix_compatibility_matches_marks_exactly_in_the_plane():
    """Marks match exactly in the plane too: A^{-1} c_i = c_j when
    c_i = A c_j in the integer ratios of the float inputs.  So
    |x|^{-0.45} |x - (1e-14, 0)|^{-0.45} under +-I, whose w(-x) / w(x) is
    unbounded near (-1e-14, 0), reads inf, and four centres that a quarter
    turn permutes, none a dyadic point, read C = 1."""
    w = ProductPowerWeight(((-0.45, (0.0, 0.0)), (-0.45, (_GAP, 0.0))), dimension=2)
    comp, detail = check_matrix_compatibility(w, MatrixFamily((np.eye(2), -np.eye(2))))
    assert comp == math.inf and detail.startswith(
        "w(A_1 x)/w(x) grows like |x - m|^-0.45 at m = [-1e-14, ")
    w = ProductPowerWeight(tuple((-0.2, c) for c in ((0.1, 0.3), (-0.3, 0.1), (-0.1, -0.3),
                                                     (0.3, -0.1))), dimension=2)
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert check_matrix_compatibility(w, MatrixFamily((np.eye(2), quarter, -np.eye(2)))) == (
        1.0, None)


def test_matrix_compatibility_evaluates_no_weight(monkeypatch):
    """The constant comes from the exponents and singular values, and a
    tabulated weight's from the extremes of its values: max / min bounds the
    ratio, and no value is looked up."""
    import rieszkit.weights as weights

    def refuse(*args, **kwargs):
        raise AssertionError("the compatibility rule evaluated the weight")

    monkeypatch.setattr(weights, "eval_weight_batch", refuse)
    monkeypatch.setattr(RegularGrid, "cell_index", refuse)
    tab = TabulatedWeight(RegularGrid((-1.0,), (1.0,), (4,)), np.array([2.0, 1.0, 8.0, 4.0]))
    assert check_matrix_compatibility(tab, scalar_family([1.0, -3.0])) == (8.0, None)
    assert check_matrix_compatibility(PowerWeight(0.5), scalar_family([4.0])) == (2.0, None)


def MatrixFamilyRotation():
    from rieszkit import MatrixFamily

    th = 0.7
    return MatrixFamily((np.array([[math.cos(th), -math.sin(th)],
                                   [math.sin(th), math.cos(th)]]),))


# ---------------------------------------------------------------------------
# in-test oracles backing the frozen values above
# ---------------------------------------------------------------------------


def test_estimates_in_dimension_two():
    fam = dyadic_ball_family([[0.0, 0.0], [1.0, 0.0]], -4, 0)
    rep = estimate_Ap_constant(PowerWeight(0.5, dimension=2), 2.0, fam)
    assert rep.verdict == "finite"
    rep = estimate_Ap_constant(PowerWeight(1.2, dimension=2), 1.5, fam)
    assert rep.verdict == "diverging"
    # the singular disk integral is read exactly
    v = weighted_measure(PowerWeight(-0.5, dimension=2), 1.0, Ball([0.0, 0.0], 1.0))
    assert v == pytest.approx(2.0 * math.pi / 1.5, rel=1e-3)


def test_a1_oracle_agrees(std_family):
    """Independent brute-force maximization of avg/min over the same family."""
    a = -1.0 / 3.0
    best = 0.0
    for ball in std_family:
        c, r = float(ball.center[0]), ball.radius
        xs = np.linspace(c - r, c + r, 4097)
        xs = 0.5 * (xs[:-1] + xs[1:])

        def anti(t):
            return math.copysign(abs(t) ** (a + 1) / (a + 1), t)

        avg = (anti(c + r) - anti(c - r)) / (2 * r)
        best = max(best, avg / float(np.min(np.abs(xs) ** a)))
    assert best == pytest.approx(A1_THIRD_ORACLE, rel=1e-9)


def test_rh_oracle_agrees(std_family):
    a, s = -0.125, 4.0
    best = 0.0
    for ball in std_family:
        c, r = float(ball.center[0]), ball.radius

        def pmean(e):
            def anti(t):
                return math.copysign(abs(t) ** (a * e + 1) / (a * e + 1), t)

            return ((anti(c + r) - anti(c - r)) / (2 * r)) ** (1.0 / e)

        best = max(best, pmean(s) / pmean(1.0))
    assert best == pytest.approx(RH4_EIGHTH_ORACLE, rel=1e-9)


# ---------------------------------------------------------------------------
# exact power means against mpmath
# ---------------------------------------------------------------------------


def _mp_radial_primitive(e, sig, n, R):
    """Integral of r^e L(r)^sig r^(n-1) over [0, R] (L = log 1/r below 1/e, 1 above)."""
    import mpmath as mp

    R, g, knee = mp.mpf(R), mp.mpf(e) + n, mp.e ** -1
    if sig == 0:
        return R ** g / g
    if R <= knee:
        # t = log(1/r): integral of e^{-g t} t^sig over t > log(1/R)
        return g ** (-sig - 1) * mp.gammainc(sig + 1, g * mp.log(1 / R))
    return _mp_radial_primitive(e, sig, n, knee) + (R ** g - knee ** g) / g


def _mp_ball_integral(e, sig, offset, rho):
    """Integral over B(offset, rho) of P(|y|) = |y|^e L(|y|)^sig: on the line
    by primitives, in the plane by the polar integral around the singular
    point of F(R) = primitive(0, R), split where the circle of radius 1/e
    crosses the ball boundary."""
    import mpmath as mp

    F = lambda R: _mp_radial_primitive(e, sig, len(offset), R)  # noqa: E731
    rho = mp.mpf(rho)
    if len(offset) == 1:
        a, b = mp.mpf(offset[0]) - rho, mp.mpf(offset[0]) + rho
        if a >= 0:
            return F(b) - F(a)
        if b <= 0:
            return F(-a) - F(-b)
        return F(-a) + F(b)
    d = mp.sqrt(mp.mpf(offset[0]) ** 2 + mp.mpf(offset[1]) ** 2)
    if d == 0:
        return 2 * mp.pi * F(rho)
    cut = (mp.e ** -2 + d * d - rho * rho) / (2 * mp.e ** -1 * d)
    knee = [mp.acos(cut)] if -1 < cut < 1 else []

    def chord(th, sign):
        return d * mp.cos(th) + sign * mp.sqrt(max(rho ** 2 - (d * mp.sin(th)) ** 2, 0))

    if d < rho:
        near_pi = [mp.pi - mp.mpf(10) ** -k for k in range(1, 5)]
        pts = sorted([mp.mpf(0)] + knee + near_pi + [mp.pi])
        return 2 * mp.quad(lambda th: F(chord(th, 1)), pts)
    if d == rho:
        # the near chord end is the singular point itself; rounding noise
        # there would weigh in as F(1e-31) ~ 1e-31^g / g for small g
        pts = sorted([mp.mpf(0)] + knee + [mp.pi / 2])
        return 2 * mp.quad(lambda th: F(chord(th, 1)), pts)
    top = mp.asin(rho / d)
    pts = sorted([mp.mpf(0)] + [k for k in knee if k < top] + [top])
    return 2 * mp.quad(lambda th: F(chord(th, 1)) - F(max(chord(th, -1), 0)), pts)


_MP_CASES = [
    # (weight, s, center, radius): singular point at the center, on the
    # boundary, just inside it (rho/d = 1.001, 1.1) and outside it
    (PowerWeight(0.5), 1.0, [0.0], 1.0),
    (PowerWeight(0.5), 1.0, [1.0], 1.001),
    (PowerWeight(0.5), -1.9, [1.0], 1.0),
    (PowerWeight(-0.125), 7.9, [1.0], 1.0 / 1.1),
    (PowerWeight(260.0), 1.0, [0.0], 2.0 ** -8),
    (PowerWeight(0.5), 1024.0, [0.5], 2.0 ** -8),
    (LogExampleWeight(power=1.0), 1.0, [0.0], 0.25),
    (LogExampleWeight(power=1.0, scale=3.0), -1.0, [0.5], 1.1 * 0.5),
    (LogExampleWeight(power=1.0), 1024.0, [0.0], 2.0 ** -8),
    (ProductPowerWeight(((0.5, (1.0,)),), scale=2.0), 2.0, [0.0], 1.1),
    (PowerWeight(0.5, dimension=2), 1.0, [1.0, 0.0], 1.0),
    (PowerWeight(0.5, dimension=2), 1.0, [1.0, 0.0], 1.001),
    (PowerWeight(0.5, dimension=2), 1.0, [0.0, 1.0], 1.0 / 1.001),
    (PowerWeight(0.5, dimension=2), -3.0, [1.0, 0.0], 1.1),
    (PowerWeight(0.5, dimension=2), 1024.0, [1.0, 0.0], 1.0 / 1.1),
    (PowerWeight(-1.5, dimension=2), 1.0, [0.0, -1.0], 1.0),
    # a circle through the singular point just below the RH index 4 of
    # |x|^{-1/2}: r^(g-1) with g = 0.005 decays only far below e**-700
    (PowerWeight(-0.5, dimension=2), 3.99, [0.0, 1.0], 1.0),
    (PowerWeight(-0.5, dimension=2), 3.99, [2.0 ** -8, 0.0], 2.0 ** -8),
    (LogExampleWeight(dimension=2, power=1.0), 1.0, [0.3, 0.0], 0.3 * 1.001),
    (LogExampleWeight(dimension=2, power=2.0), -1.0, [0.3, 0.0], 0.3 * 1.1),
    (LogExampleWeight(dimension=2, power=1.0), 1.0, [1.0, 0.0], 1.0 / 1.1),
    (LogExampleWeight(dimension=2, power=1.0), 1024.0, [0.0, 0.0], 0.2),
    (LogExampleWeight(dimension=2, power=1.0), 16.0, [0.1, 0.0], 0.2),
    (ProductPowerWeight(((-1.0, (0.5, 0.5)),), dimension=2, scale=0.5), 1.5,
     [0.5, -0.5], 1.0),
]


@pytest.mark.parametrize("w, s, center, radius", _MP_CASES)
def test_power_mean_matches_mpmath(w, s, center, radius):
    """Radial power means are exact: within 1e-12 of 30-digit values, also
    where the mean itself under- or overflows (compared as logarithms)."""
    import mpmath as mp

    from rieszkit.weights import _radial_form

    mp.mp.dps = 30
    c, profile, log_scale = _radial_form(w, s)
    offset = (np.asarray(center) - c).tolist()
    vol = 2 * mp.mpf(radius) if w.dimension == 1 else mp.pi * mp.mpf(radius) ** 2
    integral = _mp_ball_integral(profile.exponent, profile.s, offset, radius)
    exact = (log_scale + mp.log(integral / vol)) / s
    ball = Ball(center, radius)
    got = power_mean(w, s, ball, log=True)
    assert abs(got - exact) <= 1e-12 * max(1.0, abs(float(exact)))
    if abs(exact) < 700:
        assert power_mean(w, s, ball) == pytest.approx(float(mp.e ** exact), rel=1e-12)


_TINY = 2.0 ** -46  # about 1.4e-14, so the ends below are exact floats
_W_ZERO_POLE = ProductPowerWeight(((0.3, (0.0,)), (-0.4, (1.0,))))
_W_TWO_POLES = ProductPowerWeight(((-0.5, (0.0,)), (-0.5, (1.0,)), (0.7, (-2.0,))))
_W_NEAR = ProductPowerWeight(((0.6, (0.0,)), (-0.3, (1.0,))), scale=2.5)
_W_THREE = ProductPowerWeight(((2.0, (-1.0,)), (-0.01, (0.5,)), (0.25, (2.0,))), scale=3.0)
_W_GAP = ProductPowerWeight(((-0.45, (0.0,)), (-0.45, (_GAP,))))
_W_GAP_DEEP = ProductPowerWeight(((-0.6, (0.0,)), (-0.6, (_GAP,))))
_PRODUCT_CASES = [
    # (weight, s, center, radius): a zero and a pole in one ball, s from -3
    # to 64 where w^s is locally integrable, ball ends 2^-46 from a centre
    (_W_ZERO_POLE, 1.0, 0.0, 1.0),
    (_W_ZERO_POLE, 1.0, 0.5, 1.0),
    (_W_ZERO_POLE, 2.0, 0.5, 1.0),
    (_W_ZERO_POLE, -2.0, 0.5, 1.0),
    (_W_ZERO_POLE, -3.0, 0.5, 1.0),
    (_W_ZERO_POLE, -3.0, -0.5, 0.25),
    (_W_TWO_POLES, 1.0, 0.5, 1.0),
    (_W_TWO_POLES, 1.5, 0.5, 1.0),
    (_W_TWO_POLES, -1.2, -1.0, 2.0),
    (_W_NEAR, 1.0, 1.0 + _TINY, 1.0),
    (_W_NEAR, 3.0, 1.0 + _TINY, _TINY),
    (_W_NEAR, -1.5, _TINY, _TINY),
    (_W_NEAR, -1.5, 0.5 + _TINY, 0.5),
    (_W_THREE, 0.5, 0.0, 2.0),
    (_W_THREE, 64.0, -1.0, 0.5),
    (_W_THREE, 64.0, 0.5, 2.0),
    (_W_THREE, -0.4, -1.0, 0.25),
    # centres 1e-14 apart
    (_W_GAP, 1.0, 0.5, 1.0),
    (_W_GAP, -2.0, 0.5, 1.0),
    (_W_GAP_DEEP, 1.0, 0.5, 1.0),
    (_W_GAP_DEEP, 1.5, _GAP, _GAP),
]


def _mp_product_integral(w, s, lo, hi):
    """The integral of w^s over [lo, hi] in mpmath: each piece between the
    ends and the centres is halved, and each half, with its end p and the
    exponent e of w^s there, is integrated in the offset u = |x - p|, for
    e < 0 through u = t^(1 / (1 + e)), where the pole and the Jacobian
    cancel.  Offsets keep the digits that x - p would lose."""
    import mpmath as mp

    lo, hi = mp.mpf(lo), mp.mpf(hi)
    factors = [(mp.mpf(c[0]), a * s) for a, c in w.factors]
    cuts = sorted({lo, hi, *(c for c, _ in factors if lo < c < hi)})
    total = 0
    for p0, p1 in zip(cuts, cuts[1:]):
        for p, way in ((p0, 1), (p1, -1)):
            e = sum(e for c, e in factors if c == p)
            m = 1 / (1 + e) if e < 0 else 1
            rest = [(c, e) for c, e in factors if c != p]
            total += m * mp.quad(lambda t: t**(m * (1 + e) - 1) * mp.fprod(
                abs(p + way * t**m - c)**ek for c, ek in rest), [0, ((p1 - p0) / 2) ** (1 / m)])
    return mp.mpf(w.scale) ** s * total


@pytest.mark.parametrize("w, s, center, radius", _PRODUCT_CASES)
def test_product_power_mean_on_the_line_matches_mpmath(w, s, center, radius):
    """A product weight's mean on the line is exact (``line_integral``):
    |x|^0.3 |x - 1|^-0.4 on B(0, 1) integrates to 2.03855610446236, where
    the cell rule read 2.0385520869, |x|^-0.45 |x - 1e-14|^-0.45 on
    B(0.5, 1) to 19.15474759701586, where one merged factor |x|^-0.9 read
    19.744, and every case is within 1e-12 of
    40-digit mpmath (at 30 digits mpmath's own tolerance
    is absolute, and |x + 1|^128 on B(-1, 1/2) integrates to 4e-33).  The
    ends are exact floats, so both read one ball."""
    import mpmath as mp

    with mp.workdps(40):
        lo, hi = center - radius, center + radius
        exact = float(mp.log(_mp_product_integral(w, s, lo, hi) / (2 * mp.mpf(radius))) / s)
    got = power_mean(w, s, Ball([center], radius), log=True)
    assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))


_RADIAL_WEIGHTS = [PowerWeight(0.5, dimension=2), PowerWeight(-1.2, dimension=2),
                   LogExampleWeight(dimension=2), LogExampleWeight(dimension=2, power=-2.0),
                   ProductPowerWeight(((0.75, (0.5, 0.0)),), dimension=2),
                   PowerWeight(0.5), LogExampleWeight(power=-1.0)]


def _radial_infimum(w, ball):
    """scale * min(P(max(0, d - rho)), P(d + rho)), d the distance from the
    weight's centre to the ball's, written out per weight kind."""
    if isinstance(w, ProductPowerWeight):
        (a, c), = w.factors
        P = lambda r: r**a if r > 0 else (math.inf if a < 0 else 0.0)
    elif isinstance(w, PowerWeight):
        a, c = w.exponent, (0.0,) * w.dimension
        P = lambda r: r**a if r > 0 else (math.inf if a < 0 else 0.0)
    else:
        c = (0.0,) * w.dimension
        P = lambda r: (1.0 if r >= math.exp(-1.0) else
                       math.log(1.0 / r) ** w.power if r > 0 else
                       (math.inf if w.power > 0 else 0.0))
    d = math.dist(ball.center.tolist(), c)
    return w.scale * min(P(max(0.0, d - ball.radius)), P(d + ball.radius))


@pytest.mark.parametrize("w", _RADIAL_WEIGHTS)
def test_min_over_nodes_is_the_radial_infimum(w):
    """For a radial weight the infimum is exact: the weight at the point of
    the closed ball nearest to or farthest from its centre."""
    from rieszkit import default_ball_family
    from rieszkit.weights import essential_infimum

    for ball in default_ball_family(w.dimension):
        got = essential_infimum(w, ball)
        assert got == pytest.approx(_radial_infimum(w, ball), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("w", _RADIAL_WEIGHTS)
def test_min_over_nodes_never_exceeds_the_node_minimum(w):
    """The exact infimum is at most the weight's minimum over every node of
    the ball's midpoint lattice."""
    from rieszkit import QuadratureScheme, default_ball_family
    from rieszkit.weights import essential_infimum

    def every_node(ball, scheme):
        cells = 2 * scheme.resolution
        axes = [np.linspace(c - ball.radius, c + ball.radius, cells + 1) for c in ball.center]
        mids = [0.5 * (a[:-1] + a[1:]) for a in axes]
        pts = np.stack([g.ravel() for g in np.meshgrid(*mids, indexing="ij")], axis=1)
        pts = pts[np.linalg.norm(pts - ball.center, axis=1) <= ball.radius]
        return float(np.min(eval_weight_batch(w, pts, extended=True)))

    for ball in default_ball_family(w.dimension):
        for resolution in (16, 64):
            scheme = QuadratureScheme(resolution=resolution)
            assert essential_infimum(w, ball) <= every_node(ball, scheme)
