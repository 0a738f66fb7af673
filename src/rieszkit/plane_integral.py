"""Integrals over a disk of products of powers of distances
(``log_disk_integral``): only a multi-factor product weight's integrals in
the plane (``weights``) import it, so no other process compiles it."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .panels import graded_panels, line_nodes, line_panels, panel_rule

# toward a centre inside or on the circle the angular grading goes on until
# the innermost panel is about _DEPTH of the angular scale near it
_DEPTH = 1e-13
# the largest sum of |b_k| off the centre (the angles take no fast-power cut)
MAX_POWER = 40.0
_RAYS = 64  # angular panels whose rays are weighted at once


def log_disk_integral(factors, center, radius: float) -> float:
    """log of the integral over the disk B(center, radius) of
    prod_k |x - c_k|^b_k, for ``factors`` [(c_k, b_k)] with distinct c_k, not
    all at the centre, and every b_k > -2, exact to rounding: one factor reads
    to 4e-14 at b = 40 (1.6e-12 at 48), so ConfigError at ``weight.factors``
    where the |b_k| off the centre sum past MAX_POWER.

    In polar coordinates about the disk's centre a factor there joins the
    Jacobian r^e0, and each other one is a point (r_k, phi_k).  The ray
    integral F(phi) is |phi - phi_k|^(b_k + 1) times an analytic function
    plus another when r_k <= R, with singularities |log(R / r_k)| off the
    axis.  So the angles split at every phi_k (centres on one ray share a
    mark), each half graded toward its mark to _DEPTH min(pi, |log(R /
    r_k)|), Gauss-Jacobi for the power when b_k < -1, or to log(r_k / R)
    for a centre outside.  Each ray, marked at 0, the closest approaches t_k
    in (0, R) and R, is a group of the line's panel stage (``panels``; Davis
    & Rabinowitz, 1984), r^e0 one more factor.  Sums are logarithms.
    """
    R = float(radius)
    v = np.array([c for c, _ in factors], dtype=float) - np.asarray(center, dtype=float)
    b = np.array([e for _, e in factors], dtype=float)
    rk = np.hypot(v[:, 0], v[:, 1])
    e0 = 1.0 + float(np.sum(b[rk == 0.0]))
    v, b, rk = v[rk > 0.0], b[rk > 0.0], rk[rk > 0.0]
    if np.sum(np.abs(b)) > MAX_POWER:
        raise ConfigError("weight.factors", f"|powers| off a disk's centre sum past {MAX_POWER:g}")
    phik, k = np.arctan2(v[:, 1], v[:, 0]), b.size
    # angular marks: each one's gap to its singularity and Jacobi exponent
    scale = np.abs(np.log(rk) - math.log(R))
    inside = rk <= R
    gaps = np.where(inside, _DEPTH * np.minimum(scale + math.pi * (scale == 0.0), math.pi), scale)
    marks = np.array(sorted(set(phik.tolist())))
    which, m = np.searchsorted(marks, phik), marks.size
    gap, beta = np.full(m, math.inf), np.zeros(m)
    np.minimum.at(gap, which, gaps)
    np.minimum.at(beta, which, np.where(inside, b + 1.0, 0.0))
    # each piece between neighbouring marks in two halves, graded toward their marks
    home = np.concatenate([np.arange(m), (np.arange(m) + 1) % m])
    half = np.tile(0.5 * np.diff(marks, append=marks[0] + 2.0 * math.pi), 2)
    owner, lo, hi = graded_panels(half, gap[home])
    level = np.where(lo == 0.0, beta[home][owner], 0.0)
    psi, logw, logjac = panel_rule(lo, hi, level)
    # the rule's weight holds psi^level on a Gauss-Jacobi panel
    outer = (logw + logjac[:, None] - level[:, None] * np.log(psi)).ravel()
    # each node's angle from every centre, from its own mark (exactly psi from it)
    delta = ((marks[:, None] - phik)[home[owner]][:, None, :]
             + (np.repeat([1.0, -1.0], m)[owner][:, None] * psi)[:, :, None]).reshape(-1, k)
    tops, sums = [], []
    for ray in range(0, delta.shape[0], 16 * _RAYS):
        group, mark, way, length, forms = _ray_halves(delta[ray:ray + 16 * _RAYS], rk, b, e0, R)
        for own, _, terms in line_nodes(*line_panels(length, forms), mark, way, forms):
            terms += outer[ray + group[own]][:, None]
            tops.append(float(np.max(terms)))
            sums.append(float(np.sum(np.exp(terms - tops[-1]))))
    return max(tops) + math.log(math.fsum(s * math.exp(t - max(tops)) for t, s in zip(tops, sums)))


def _ray_halves(delta, rk, b, e0: float, R: float):
    """The rays at angles ``delta`` from the centres as groups of the line's panel
    stage: (group, mark, way, length) per half, forms of the centres and r^e0."""
    n, k = delta.shape
    t, h = rk * np.cos(delta), rk * np.abs(np.sin(delta))
    # R - t_k, near the centre's own ray from the half angle
    rest = np.where(np.cos(delta) > 0.5, (R - rk) + 2.0 * rk * np.sin(0.5 * delta) ** 2, R - t)
    # ray marks 0, t_k, R with R minus each; a t_k outside (0, R) reads 0 or R
    low, high = (t <= 0.0) | (rest >= R), (rest <= 0.0) | (t >= R)
    inner = np.where(low, 0.0, np.where(high, R, t))
    val = np.pad(inner, ((0, 0), (1, 1)), constant_values=(0, R))
    rem = np.pad(np.where(low | high, R - inner, rest), ((0, 0), (1, 1)), constant_values=(R, 0))
    order = np.argsort(val, axis=1, kind="stable")
    val, rem = np.take_along_axis(val, order, 1), np.take_along_axis(rem, order, 1)
    # pieces between neighbouring marks, each in two halves toward their marks
    length = 0.5 * np.where(rem[:, 1:] == 0.0, rem[:, :-1], val[:, 1:] - val[:, :-1])
    mark = np.stack([val[:, :-1], val[:, 1:]], axis=2).reshape(n, -1)
    # each centre's offset p - t_k from every mark p
    off = np.where((mark == R)[:, :, None], rest[:, None, :], mark[:, :, None] - t[:, None, :])
    mark, off, way = mark.ravel(), off.reshape(-1, k), np.resize([1.0, -1.0], mark.size)
    forms = np.zeros((5, mark.size, k + 1))
    sign = np.where(off, way[:, None] * np.sign(off), 1.0)
    forms[:4, :, :k] = np.broadcast_arrays(np.abs(off), sign, np.repeat(h, 2 + 2 * k, 0), b)
    forms[:2, :, k], forms[3, :, k] = (mark, way), e0
    return np.arange(mark.size) // (2 + 2 * k), mark, way, np.repeat(length.ravel(), 2), forms
