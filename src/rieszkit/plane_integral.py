"""Integrals over a disk of products of powers of distances
(``log_disk_integral``): only a multi-factor product weight's integrals in
the plane (``weights``) import it, so no other process compiles it."""

from __future__ import annotations

import math

import numpy as np

from .panels import graded_panels, panel_rule

# toward a centre inside or on the circle the angular grading goes on until
# the innermost panel is about _DEPTH of the angular scale near it
_DEPTH = 1e-13


def log_disk_integral(factors, center, radius: float) -> float:
    """log of the integral over the disk B(center, radius) of
    prod_k |x - c_k|^b_k, for ``factors`` [(c_k, b_k)] with distinct c_k, not
    all at the centre, and every b_k > -2: exact to rounding while sum_k
    |b_k| is at most about 30 (16 nodes on a panel resolve no faster power).

    In polar coordinates about the disk's centre a factor there joins the
    Jacobian r^e0, and each other one is a point (r_k, phi_k).  The ray
    integral F(phi) is |phi - phi_k|^(b_k + 1) times an analytic function
    plus another when r_k <= R, with singularities |log(R / r_k)| off the
    axis, where the circle meets them.  So the angles split at every phi_k
    (centres on one ray share a mark) and each half is graded toward its
    mark, to _DEPTH min(pi, |log(R / r_k)|) with Gauss-Jacobi for the power
    when b_k < -1, and to log(r_k / R) for a centre outside.  Along a ray a
    factor is ((r - t_k)^2 + h_k^2)^(b_k / 2), so the ray splits at each t_k
    in (0, R) and each half is graded toward its mark p to min_k |p - t_k -
    i h_k| (and |p| when e0 != 1), with Gauss-Jacobi for r^e0 at r = 0
    (``_nodes``; Davis & Rabinowitz, Methods of Numerical Integration,
    1984).  Offsets are formed from a node's own mark, so no distance is
    lost to rounding, and the sums are logarithms.
    """
    R = float(radius)
    v = np.array([c for c, _ in factors], dtype=float) - np.asarray(center, dtype=float)
    b = np.array([e for _, e in factors], dtype=float)
    rk = np.hypot(v[:, 0], v[:, 1])
    e0 = 1.0 + float(np.sum(b[rk == 0.0]))
    v, b, rk = v[rk > 0.0], b[rk > 0.0], rk[rk > 0.0]
    phik, k = np.arctan2(v[:, 1], v[:, 0]), b.size
    # angular marks: each one's gap to its singularity and Jacobi exponent
    scale = np.abs(np.log(rk) - math.log(R))
    inside = rk <= R
    gaps = np.where(inside, _DEPTH * np.where(scale > 0.0, np.minimum(scale, math.pi), math.pi),
                    scale)
    marks = np.array(sorted(set(phik.tolist())))
    which, m = np.searchsorted(marks, phik), marks.size
    gap, beta = np.full(m, math.inf), np.zeros(m)
    np.minimum.at(gap, which, gaps)
    np.minimum.at(beta, which, np.where(inside, b + 1.0, 0.0))
    # each piece between neighbouring marks in two halves, graded toward their marks
    home = np.concatenate([np.arange(m), (np.arange(m) + 1) % m])
    half = np.tile(0.5 * np.diff(marks, append=marks[0] + 2.0 * math.pi), 2)
    owner, psi, logw, level = _nodes(half, gap[home], beta[home])
    # the rule's weight holds psi^level on a Gauss-Jacobi panel
    outer = (logw - level[:, None] * np.log(psi)).ravel()
    # each node's angle from every centre, from its own mark (exactly psi from it)
    d0 = marks[:, None] - phik[None, :]
    delta = (d0[home[owner]][:, None, :]
             + (np.repeat([1.0, -1.0], m)[owner][:, None] * psi)[:, :, None]).reshape(-1, k)
    n = delta.shape[0]
    t, h = rk * np.cos(delta), rk * np.abs(np.sin(delta))
    # R - t_k, near the centre's own ray from the half angle
    rest = np.where(np.cos(delta) > 0.5, (R - rk) + 2.0 * rk * np.sin(0.5 * delta) ** 2, R - t)
    # ray marks 0, t_k, R with R minus each; a t_k outside (0, R) reads 0 or R
    low, high = (t <= 0.0) | (rest >= R), (rest <= 0.0) | (t >= R)
    val = np.concatenate([np.zeros((n, 1)), np.where(low, 0.0, np.where(high, R, t)),
                          np.full((n, 1), R)], axis=1)
    rem = np.concatenate([np.full((n, 1), R), np.where(low, R, np.where(high, 0.0, rest)),
                          np.zeros((n, 1))], axis=1)
    order = np.argsort(val, axis=1, kind="stable")
    val, rem = np.take_along_axis(val, order, 1), np.take_along_axis(rem, order, 1)
    # pieces between neighbouring marks, each in two halves toward their marks
    length = np.where(rem[:, 1:] == 0.0, rem[:, :-1], val[:, 1:] - val[:, :-1])
    mark = np.stack([val[:, :-1], val[:, 1:]], axis=2).reshape(n, -1)
    # each centre's offset p - t_k from every mark p, and the nearest singularity
    off = np.where((mark == R)[:, :, None], rest[:, None, :], mark[:, :, None] - t[:, None, :])
    gap = np.min(np.hypot(off, h[:, None, :]), axis=2)
    if e0 != 1.0:
        gap = np.where(mark > 0.0, np.minimum(gap, mark), gap)
    level = np.where((mark == 0.0) & (e0 != 1.0), e0, 0.0).ravel()
    owner, u, logw, level = _nodes(np.repeat(0.5 * length, 2, axis=1).ravel(), gap.ravel(),
                                   level)
    ray, way = owner // (2 * k + 2), np.tile([1.0, -1.0], k + 1)[owner % (2 * k + 2)][:, None]
    dist = np.hypot(off.reshape(-1, k)[owner][:, None, :] + (way * u)[:, :, None],
                    h[ray][:, None, :])
    # on a Gauss-Jacobi panel the rule's weight holds r^e0
    r = np.where(level[:, None] != 0.0, 1.0, mark.ravel()[owner][:, None] + way * u)
    terms = np.sum(b * np.log(dist), axis=2) + e0 * np.log(r) + logw + outer[ray][:, None]
    top = float(np.max(terms))
    return top + math.log(float(np.sum(np.exp(terms - top))))


def _nodes(length, gap, level):
    """Nodes on halves [0, length] graded toward 0 to ``gap``
    (``panels.graded_panels``): each node's half, offset u and log weight,
    and its panel's level, which is the half's on the panel at 0, where the
    rule takes u^level (``panels.panel_rule``)."""
    owner, lo, hi = graded_panels(length, gap)
    level = np.where(lo == 0.0, level[owner], 0.0)
    u, logw, logjac = panel_rule(lo, hi, level)
    return owner, u, logw + logjac[:, None], level
