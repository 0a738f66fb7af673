"""Weight evaluation, class-constant estimates, critical indices, doubling."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszkit import (Ball, LogExampleWeight, NotIntegrable, OutOfGrid,
                      PowerWeight, ProductPowerWeight, RegularGrid,
                      SingularPoint, TabulatedWeight, check_matrix_compatibility,
                      critical_indices, doubling_check, dyadic_ball_family,
                      estimate_A1_constant, estimate_Ap_constant,
                      estimate_Apq_constant, estimate_RH_constant, eval_weight,
                      matrix_doubling_check, scalar_family, weight_power,
                      weighted_measure)
from rieszkit.weights import (eval_weight_batch, weight_from_dict,
                              weight_to_dict)

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


def test_apq_ess_inf_branch(std_family, fast_scheme):
    # p = 1 uses the node-minimum in place of the dual average
    w = weight_power(PowerWeight(-1.0 / 3.0), 0.25)
    rep = estimate_Apq_constant(w, 1.0, 4.0, std_family, fast_scheme, refine_steps=1)
    assert rep.verdict == "finite"
    assert rep.constant >= 1.0 - 1e-12


def test_weight_serialization_roundtrip():
    for w in (PowerWeight(0.5), LogExampleWeight(power=2.0),
              ProductPowerWeight(((0.5, (1.0,)), (-0.25, (-1.0,)))),
              TabulatedWeight(RegularGrid((-1.0,), (1.0,), (4,)),
                              np.array([1.0, 2.0, 3.0, 4.0]))):
        back = weight_from_dict(weight_to_dict(w))
        xs = np.array([[0.3], [-0.7]])
        assert np.allclose(eval_weight_batch(w, xs), eval_weight_batch(back, xs))


# ---------------------------------------------------------------------------
# weighted measures
# ---------------------------------------------------------------------------


def test_measure_examples():
    assert weighted_measure(PowerWeight(0.0), 1.0, Ball([0.0], 1.0)) == pytest.approx(2.0)
    # integral of |x| over [-1, 1]
    assert weighted_measure(PowerWeight(0.5), 2.0, Ball([0.0], 1.0)) == pytest.approx(1.0)


def test_measure_log_example_against_oracle():
    val = weighted_measure(LogExampleWeight(), 1.0, Ball([0.0], math.exp(-1)))
    assert val == pytest.approx(LOG_MEASURE_ORACLE, rel=1e-5)
    assert val == pytest.approx(4.0 / math.e, rel=1e-10)


def test_measure_not_integrable():
    with pytest.raises(NotIntegrable):
        weighted_measure(PowerWeight(0.5), -2.5, Ball([0.0], 1.0))


def test_measure_off_center_ball_contains_singularity(fast_scheme):
    # B(0.5, 1) contains the pole of |x|^{-1/2}
    v = weighted_measure(PowerWeight(-0.5), 1.0, Ball([0.5], 1.0), fast_scheme)
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
                                      scalar_family([1.0, -1.0])) == pytest.approx(1.0)


def test_a1_positive_power_diverges(std_family):
    rep = estimate_A1_constant(PowerWeight(0.5), std_family)
    assert rep.verdict == "diverging"
    # divergence needs sustained growth across the refinement series
    assert len(rep.series) >= 4
    assert rep.series[-1] >= 4.0 * rep.series[0]


def test_ap_examples(std_family):
    assert estimate_Ap_constant(PowerWeight(0.0), 2.0, std_family).constant == pytest.approx(1.0)
    rep = estimate_Ap_constant(PowerWeight(0.5), 2.0, std_family)
    assert rep.verdict == "finite"
    rep = estimate_Ap_constant(PowerWeight(1.2), 2.0, std_family)
    assert rep.verdict == "diverging"


def test_apq_examples(std_family, fast_scheme):
    assert estimate_Apq_constant(PowerWeight(0.0), 2.0, 4.0, std_family,
                                 fast_scheme, refine_steps=1).constant == pytest.approx(1.0)
    # w in A_1 implies w^{1/q} in A_{p,q}
    wq = weight_power(PowerWeight(-1.0 / 3.0), 0.25)
    rep = estimate_Apq_constant(wq, 2.0, 4.0, std_family, fast_scheme, refine_steps=1)
    assert rep.verdict == "finite"


def test_apq_diagonal_matches_ap(std_family, fast_scheme):
    # p = q: the two-exponent constant is [w^p]_{A_p}^{1/p}
    w = PowerWeight(0.25)
    r1 = estimate_Apq_constant(w, 2.0, 2.0, std_family, fast_scheme, refine_steps=1)
    r2 = estimate_Ap_constant(weight_power(w, 2.0), 2.0, std_family, fast_scheme,
                              refine_steps=1)
    assert r1.verdict == r2.verdict == "finite"
    assert r1.constant**2 == pytest.approx(r2.constant, rel=1e-8)


def test_rh_examples(std_family):
    assert estimate_RH_constant(PowerWeight(0.0), 4.0, std_family).constant == pytest.approx(1.0)
    rep = estimate_RH_constant(PowerWeight(-0.125), 4.0, std_family)
    assert rep.verdict == "finite"
    assert rep.constant == pytest.approx(RH4_EIGHTH_ORACLE, rel=1e-4)
    rep = estimate_RH_constant(PowerWeight(-0.125), 16.0, std_family)
    assert rep.verdict == "diverging"


def test_constants_at_least_one(std_family, fast_scheme):
    for w in (PowerWeight(0.0), PowerWeight(0.5), PowerWeight(-1.0 / 3.0),
              LogExampleWeight()):
        for p in (1.5, 2.0, 3.0):
            rep = estimate_Ap_constant(w, p, std_family, fast_scheme, refine_steps=0)
            assert rep.constant >= 1.0 - 1e-12
        rep = estimate_RH_constant(w, 2.0, std_family, fast_scheme, refine_steps=0)
        assert rep.constant >= 1.0 - 1e-12


def test_ap_monotone_in_p(std_family, fast_scheme):
    for w in (PowerWeight(0.5), PowerWeight(-1.0 / 3.0)):
        values = [estimate_Ap_constant(w, p, std_family, fast_scheme,
                                       refine_steps=0).constant
                  for p in (1.6, 2.0, 2.5, 3.0)]
        assert all(values[i + 1] <= values[i] * (1 + 1e-9) for i in range(len(values) - 1))


def test_rh_monotone_in_s(std_family, fast_scheme):
    values = [estimate_RH_constant(PowerWeight(-0.125), s, std_family, fast_scheme,
                                   refine_steps=0).constant
              for s in (1.5, 2.0, 3.0, 4.0)]
    assert all(values[i + 1] >= values[i] * (1 - 1e-9) for i in range(len(values) - 1))


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=0.01, max_value=100.0))
def test_scaling_invariance(c):
    family = dyadic_ball_family([[0.0], [1.0]], -4, 0)
    from rieszkit import QuadratureScheme

    scheme = QuadratureScheme(resolution=64, tol=1e-4)
    base = PowerWeight(0.5)
    scaled = PowerWeight(0.5, scale=c)
    for fn, arg in ((estimate_Ap_constant, 2.0), (estimate_RH_constant, 2.0)):
        a = fn(base, arg, family, scheme, refine_steps=0).constant
        b = fn(scaled, arg, family, scheme, refine_steps=0).constant
        assert b == pytest.approx(a, rel=1e-10)
    a1 = estimate_A1_constant(base, family, scheme, refine_steps=0).constant
    b1 = estimate_A1_constant(scaled, family, scheme, refine_steps=0).constant
    assert b1 == pytest.approx(a1, rel=1e-10)


def test_power_weight_classifier_spot_checks(std_family, fast_scheme):
    # a < n (p - 1) with margin 0.2 decides finiteness
    cases = [(-0.8, 1.5, True), (0.5, 2.0, True), (0.9, 1.25, False),
             (0.5, 1.25, False)]
    for a, p, finite in cases:
        rep = estimate_Ap_constant(PowerWeight(a), p, std_family, fast_scheme,
                                   refine_steps=2)
        assert (rep.verdict == "finite") == finite, (a, p)


# ---------------------------------------------------------------------------
# critical indices
# ---------------------------------------------------------------------------


def test_critical_indices_unit_weight(std_family):
    idx = critical_indices(PowerWeight(0.0), std_family)
    assert idx.q_critical == 1.0
    assert math.isinf(idx.rh_critical)


def test_critical_indices_power_examples(std_family):
    idx = critical_indices(PowerWeight(0.5), std_family)
    assert idx.q_critical == pytest.approx(1.5, abs=0.02)
    assert math.isinf(idx.rh_critical)
    idx = critical_indices(PowerWeight(-0.125), std_family)
    assert idx.rh_critical == pytest.approx(8.0, abs=0.2)
    assert idx.q_critical == 1.0


@pytest.mark.parametrize("a", [-1.0 / 3.0, 0.0, 0.5])
def test_critical_index_formula(a, std_family):
    idx = critical_indices(PowerWeight(a), std_family)
    expected = max(1.0, 1.0 + a)
    assert idx.q_critical == pytest.approx(expected, abs=0.02)


# ---------------------------------------------------------------------------
# matrix compatibility and doubling
# ---------------------------------------------------------------------------


def test_matrix_compatibility_examples():
    fam = scalar_family([1.0, -1.0])
    assert check_matrix_compatibility(PowerWeight(0.0), fam) == pytest.approx(1.0)
    assert check_matrix_compatibility(PowerWeight(0.5), fam) == pytest.approx(1.0)
    # orthogonal matrices leave |x| invariant
    rot = MatrixFamilyRotation()
    assert check_matrix_compatibility(PowerWeight(0.25, dimension=2), rot) == pytest.approx(1.0)


def MatrixFamilyRotation():
    from rieszkit import MatrixFamily

    th = 0.7
    return MatrixFamily((np.array([[math.cos(th), -math.sin(th)],
                                   [math.sin(th), math.cos(th)]]),))


def test_doubling_examples(std_family, fast_scheme):
    rep = doubling_check(PowerWeight(0.0), 1.0, 2.0, std_family, fast_scheme)
    assert rep.ok and rep.worst_ratio == pytest.approx(2.0)
    rep = doubling_check(PowerWeight(0.5), 2.0, 2.0, std_family, fast_scheme)
    assert rep.ok
    b01 = Ball([0.0], 1.0)
    from rieszkit import weighted_measure as wm

    ratio = wm(PowerWeight(0.5), 1.0, b01.scaled(2.0)) / wm(PowerWeight(0.5), 1.0, b01)
    assert ratio == pytest.approx(2.0**1.5, rel=1e-10)
    rep = doubling_check(LogExampleWeight(), 1.0, 3.0, std_family, fast_scheme)
    assert rep.ok


def test_matrix_doubling(fast_scheme):
    fam = scalar_family([1.0, -1.0])
    balls = dyadic_ball_family([[0.0]], -3, 0)
    rep = matrix_doubling_check(PowerWeight(0.0), fam, balls, fast_scheme)
    assert rep.max_ratio == pytest.approx(2.0)
    assert rep.stable
    rep = matrix_doubling_check(PowerWeight(0.5), fam, dyadic_ball_family([[0.0], [1.0]], -5, 2),
                                fast_scheme)
    assert rep.stable
    # single identity matrix reduces to plain doubling at factor 2M = 2
    one = scalar_family([1.0])
    rep = matrix_doubling_check(LogExampleWeight(), one, balls, fast_scheme)
    assert rep.stable


# ---------------------------------------------------------------------------
# in-test oracles backing the frozen values above
# ---------------------------------------------------------------------------


def test_estimates_in_dimension_two():
    from rieszkit import QuadratureScheme

    fam = dyadic_ball_family([[0.0, 0.0], [1.0, 0.0]], -4, 0)
    scheme = QuadratureScheme(resolution=24, tol=1e-2)
    rep = estimate_Ap_constant(PowerWeight(0.5, dimension=2), 2.0, fam, scheme,
                               refine_steps=1)
    assert rep.verdict == "finite"
    rep = estimate_Ap_constant(PowerWeight(1.2, dimension=2), 1.5, fam, scheme,
                               refine_steps=1)
    assert rep.verdict == "diverging"
    # radial patch makes the singular disk integral accurate at low resolution
    v = weighted_measure(PowerWeight(-0.5, dimension=2), 1.0, Ball([0.0, 0.0], 1.0),
                         scheme)
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


@pytest.mark.parametrize("exponent", [0.5, -0.125])  # A_p and RH bisections
def test_critical_indices_reuses_power_means(exponent, monkeypatch, small_family,
                                             fast_scheme):
    """One critical_indices call computes every (s, ball, scheme) power mean
    once, and returns exactly what the estimators give without reuse."""
    import rieszkit.weights as wmod

    w = PowerWeight(exponent)
    seen = Counter()
    mean = wmod.power_mean

    def counting(w_, s, ball, scheme=None):
        seen[(float(s), tuple(ball.center.tolist()), ball.radius, scheme)] += 1
        return mean(w_, s, ball, scheme)

    monkeypatch.setattr(wmod, "power_mean", counting)
    reused = critical_indices(w, small_family, fast_scheme)
    assert seen and max(seen.values()) == 1

    monkeypatch.setattr(wmod, "_memo_power_mean",
                        lambda w_, s, ball, scheme, memo: mean(w_, s, ball, scheme))
    plain = critical_indices(w, small_family, fast_scheme)
    assert reused.to_dict() == plain.to_dict()
    assert reused == plain
