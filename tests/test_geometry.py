"""Balls, matrix families, region classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszkit import (Ball, BallFamily, MatrixFamily, RieszkitError, classify,
                      classify_batch, dyadic_ball_family, expanded_balls,
                      identity_family, operator_norm, scalar_family)


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
