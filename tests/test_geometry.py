"""Balls, matrix families, region classification."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rieszkit import (Ball, BallFamily, MatrixFamily, RieszkitError, classify,
                      classify_batch, dyadic_ball_family, expanded_balls,
                      identity_family, operator_norm, scalar_family)
from rieszkit.geometry import condition_number, distances, inverse, singular_values


def test_ball_validation():
    with pytest.raises(ValueError):
        Ball([0.0], 0.0)
    with pytest.raises(ValueError):
        Ball([0.0], math.inf)


def test_ball_family_needs_scale_span():
    with pytest.raises(ValueError):
        BallFamily((Ball([0.0], 1.0), Ball([0.0], 2.0)))
    fam = dyadic_ball_family([[0.0]], 0, 3)
    assert len(fam) == 4


def test_operator_norm_examples():
    assert operator_norm(np.eye(2)) == pytest.approx(1.0)
    assert operator_norm(np.diag([3.0, 0.5])) == pytest.approx(3.0)
    # oracle: explicit singular values of an antisymmetric matrix
    a = np.array([[0.0, 2.0], [-2.0, 0.0]])
    sv = math.sqrt(max(np.linalg.eigvalsh(a.T @ a)))
    assert sv == pytest.approx(2.0)
    assert operator_norm(a) == pytest.approx(2.0, rel=1e-8)


def test_matrix_family_validation():
    with pytest.raises(RieszkitError):
        MatrixFamily((np.array([[1.0, 0.0], [0.0, 0.0]]),))
    with pytest.raises(RieszkitError):
        scalar_family([1.0, 1.0], pairwise_invertible=True)
    fam = scalar_family([1.0, -1.0], pairwise_invertible=True)
    assert fam.m == 2 and fam.norm_bound == 1.0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: st.lists(
    st.floats(-1.0, 1.0).map(lambda v: v if abs(v) >= 1e-100 else 0.0),
    min_size=n * n, max_size=n * n)), st.floats(-150.0, 150.0))
def test_closed_forms_match_lapack(entries, log_scale):
    """The closed-form singular values, condition number and inverse of a 1x1
    or 2x2 matrix agree with numpy's LAPACK over scales 1e-150..1e150 when
    cond <= 1e6.  sigma_max agrees to 1e-12 relative.  sigma_min, the
    condition number and the inverse agree to 1e-12 + 1e-15 cond relative:
    LAPACK's own sigma_min is only good to about eps * cond (1.8e-10 at cond
    1e6, measured against mpmath).  On the line the inverse is 1 / a exactly.

    Entries below 1e-100 read as 0, so no entry is subnormal: there LAPACK's
    own inverse of 1.1e-308 [[1, 0], [1, 1]] reads -1 for -9e307."""
    n = 1 if len(entries) == 1 else 2
    a = np.array(entries).reshape(n, n) * 10.0 ** log_scale
    ref = np.linalg.svd(a, compute_uv=False)
    assume(ref[0] > 0.0 and ref[0] <= 1e6 * ref[-1])
    cond = ref[0] / ref[-1]
    tol = 1e-12 + 1e-15 * cond
    hi, lo = singular_values(a)
    assert abs(hi - ref[0]) <= 1e-12 * ref[0]
    assert operator_norm(a) == hi
    assert abs(lo - ref[-1]) <= tol * ref[-1]
    assert abs(condition_number(a) - cond) <= tol * cond
    inv, ref_inv = inverse(a), np.linalg.inv(a)
    if n == 1:
        assert inv[0, 0] == ref_inv[0, 0]
    else:
        assert np.max(np.abs(inv - ref_inv)) <= tol * np.max(np.abs(ref_inv))


def test_closed_forms_at_the_edges():
    """A zero matrix reads cond = inf (numpy's reading); the inverse of the
    least subnormal is inf, as numpy's; a 3x3 matrix is refused."""
    for zero in (np.zeros((1, 1)), np.zeros((2, 2))):
        assert condition_number(zero) == math.inf == np.linalg.cond(zero)
        assert singular_values(zero) == (0.0, 0.0)
    tiny = np.array([[5e-324]])
    assert condition_number(tiny) == 1.0
    assert inverse(tiny)[0, 0] == np.linalg.inv(tiny)[0, 0] == math.inf
    with pytest.raises(ValueError, match="dimensions 1 and 2"):
        condition_number(np.eye(3))
    with pytest.raises(ValueError, match="dimensions 1 and 2"):
        MatrixFamily((np.eye(3),))


def test_expanded_balls_examples():
    fam = scalar_family([1.0, -1.0])
    stars = expanded_balls(Ball([1.0], 0.1), fam)
    assert stars[0].center[0] == pytest.approx(1.0)
    assert stars[0].radius == pytest.approx(0.2)
    assert stars[1].center[0] == pytest.approx(-1.0)

    ident = identity_family(1, 3)
    stars = expanded_balls(Ball([0.5], 1.0), ident)
    assert len(stars) == 3
    assert all(s.radius == pytest.approx(2.0) for s in stars)

    two = MatrixFamily((2.0 * np.eye(2),))
    stars = expanded_balls(Ball([0.0, 0.0], 1.0), two)
    assert stars[0].radius == pytest.approx(4.0)


def test_classify_examples():
    fam = scalar_family([1.0, -1.0])
    ball = Ball([1.0], 0.1)
    assert classify([2.0], ball, fam).kind == "outer"
    assert classify([2.0], ball, fam).index == 0
    assert classify([1.05], ball, fam).kind == "inside"
    assert classify([1.05], ball, fam).index == 0
    # symmetric tie at the origin goes to the smallest index
    lab = classify([0.0], ball, fam)
    assert lab.kind == "outer" and lab.index == 0
    # boundary of the expanded ball counts as inside
    assert classify([1.2], ball, fam).kind == "inside"


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-8, max_value=8))
def test_classify_partition(x):
    fam = scalar_family([1.0, -0.5])
    ball = Ball([1.0], 0.25)
    lab = classify([x], ball, fam)
    assert lab.kind in ("inside", "outer")
    big = 2.0 * fam.norm_bound * ball.radius
    dists = [abs(x - 1.0), abs(x + 0.5)]
    if lab.kind == "outer":
        assert all(d > big for d in dists)
        assert dists[lab.index] == min(dists)
    else:
        assert dists[lab.index] <= big


@pytest.mark.parametrize("scale", [1e-170, 1.0, 1e153])
def test_membership_and_labels_hold_at_every_scale(scale):
    """Distances are abs on the line and hypot in the plane: a root of a sum
    of squares reads 2e-170 as 0 and 1e154 as inf."""
    for n in (1, 2):
        ball = Ball(np.zeros(n), scale)
        fam = MatrixFamily((np.eye(n), -np.eye(n)))
        far, near = np.full(n, 10.0 * scale), np.full(n, 0.5 * scale)
        assert ball.contains([near, far]).tolist() == [True, False]
        assert classify(far, ball, fam).kind == "outer"
        assert classify(near, ball, fam).kind == "inside"
        assert classify_batch([near, far], ball, fam)[0].tolist() == [False, True]


def test_classify_batch_matches_scalar():
    fam = scalar_family([1.0, -1.0])
    ball = Ball([0.5], 0.3)
    xs = np.linspace(-4, 4, 101)[:, None]
    outer, idx = classify_batch(xs, ball, fam)
    for x, o, i in zip(xs, outer, idx):
        lab = classify(x, ball, fam)
        assert (lab.kind == "outer") == bool(o)
        assert lab.index == i


def test_scaling_covariance_at_origin():
    # with x0 = 0 fixed by every matrix, labels are scale invariant
    fam = scalar_family([1.0, -2.0])
    for c in (0.5, 2.0):
        for x in (0.3, 1.5, -4.0, 0.05):
            a = classify([x], Ball([0.0], 1.0), fam)
            b = classify([c * x], Ball([0.0], c), fam)
            assert (a.kind, a.index) == (b.kind, b.index)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-1, max_value=1), st.floats(min_value=2.5, max_value=50))
def test_outer_containment_inequality(b, t):
    """|x - A_i xi| >= |x - A_i x0| / 2 for xi in B and outer x."""
    fam = scalar_family([1.0, -1.0])
    ball = Ball([1.0], 0.1)
    xi = np.array([1.0 + 0.1 * b])
    x = np.array([t])
    if not classify(x, ball, fam).kind == "outer":
        return
    for j in range(fam.m):
        lhs = abs(x[0] - fam.matrices[j][0, 0] * xi[0])
        rhs = 0.5 * abs(x[0] - fam.matrices[j][0, 0] * 1.0)
        assert lhs >= rhs - 1e-12


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_distances_neither_overflow_nor_underflow(scale):
    """On the line |x - c| is abs and in the plane hypot: at coordinates
    around 1e200 the squares of the differences overflow and around 1e-200
    they underflow, but the distances stay exact to rounding."""
    line = distances(np.array([[4.0 * scale], [-2.0 * scale]]), np.array([scale]))
    assert line.tolist() == pytest.approx([3.0 * scale, 3.0 * scale], rel=1e-15)
    plane = distances(np.array([[4.0 * scale, 3.0 * scale], [-2.0 * scale, -5.0 * scale]]),
                      np.array([scale, -scale]))
    assert plane.tolist() == pytest.approx([5.0 * scale, 5.0 * scale], rel=1e-15)
    assert distances(np.array([scale, 0.0]), np.zeros(2)).tolist() == [scale]
