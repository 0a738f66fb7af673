"""Whole-line integrals of products of radial profiles (``log_line_integral``).

The maximal check (``verify``) and a product weight's integrals on the
line (``weights``) import it only when they run: a module of its own keeps
the campaign processes and other weights' classify processes, which
compile their source without written bytecode, from compiling it.
"""

from __future__ import annotations

import math

import numpy as np

from .panels import graded_panels, panel_rule
from .quadrature import _KNEE

# toward a log factor's centre the grading goes on until the innermost panel
# holds at most e**-_LOG_DEPTH of its half
_LOG_DEPTH = 36.0


def log_line_integral(factors, a: float, b: float):
    """log of the integral over [a, b] of prod_k P_k(|x - m_k|), for
    ``factors`` [(m_k, P_k)] with finite m_k and -inf <= a <= b <= inf, and
    its log with every panel halved: a pair, +inf when the integral diverges
    (a mark in [a, b] with summed exponent <= -1, or an infinite end where
    gamma = sum_k e_k >= -1) and -inf when a == b.

    The marks (the m_k, the knees m_k +- 1/e of log factors, the finite
    ends) split [a, b] into pieces; each piece is halved and each half graded
    toward its mark (``panels.graded_panels``), deeper when a centre
    beyond it is close and deeper still toward a log factor; a panel across
    which a high power changes too fast is cut into equal parts.  A power's
    centre may be complex, x + iy with finite a and b (the atoms' zeros):
    x is a mark, and the centre lies hypot(x' - x, y) from a node x'.  An infinite
    end beyond the last mark v takes x = v +- D (1 - t) / t, d_k =
    |v - m_k|, D = max d_k: the integrand D t^(-gamma-2) prod_k (D (1 - t)
    + d_k t)^e_k gives two more halves, toward t = 0 and t = 1.  The panel
    at a real centre takes ``quadrature.gauss_jacobi`` for its exponent and
    every other one 16-point Gauss-Legendre (Davis & Rabinowitz, Methods of
    Numerical Integration, 1984).  Each factor is a power of a form A + B u
    (hypot(A + B u, y) off the line) in the offset u of a node from its
    half's mark, so no distance is lost to rounding, and the sums are
    logarithms.
    """
    if not a < b:
        return -math.inf, -math.inf
    cs = [complex(c).real for c, _ in factors]
    ys = [abs(complex(c).imag) for c, _ in factors]
    es = [prof.exponent for _, prof in factors]
    ss = [prof.s for _, prof in factors]
    if any(ys) and not math.isfinite(b - a):
        raise ValueError("a complex centre needs finite ends")
    gamma = sum(es)
    marks = {a, b, *cs, *(c + k for c, s in zip(cs, ss) if s for k in (-_KNEE, _KNEE))}
    marks = sorted(m for m in marks if a <= m <= b and math.isfinite(m))
    if (min((sum(e for c, y, e in zip(cs, ys, es) if c == m and not y) for m in marks),
            default=0.0) <= -1.0 or (gamma >= -1.0 and not math.isfinite(b - a))):
        return math.inf, math.inf
    # per half: its length and its forms (A, B, y, e, s), each giving the
    # factor r^e log(1 / r)^s at r = hypot(A + B u, y); two neutral forms pad
    # a finite half to the length of a tail's
    halves = []
    for p0, p1 in zip(marks, marks[1:]):
        h = 0.5 * (p1 - p0)
        for p, way in ((p0, 1.0), (p1, -1.0)):
            sides = [way * math.copysign(1.0, p - c) if p != c else 1.0 for c in cs]
            halves.append((h, [(1.0, 0.0, 0.0, 0.0, 0.0)] * 2 + [
                (abs(p - c), side, y, e, s if abs(p - c) + 0.5 * h * side < _KNEE else 0.0)
                for c, side, y, e, s in zip(cs, sides, ys, es, ss)]))
    for v, way, end in ((marks[0], -1.0, a), (marks[-1], 1.0, b)):
        if math.isinf(end):
            d = [way * (v - c) for c in cs]
            big = max(d)
            # t = t0 + sign u: the Jacobian D, t itself and each D (1 - t) + d_k t
            for t0, sign in ((0.0, 1.0), (1.0, -1.0)):
                halves.append((0.5, [(big, 0.0, 0.0, 1.0, 0.0),
                                     (t0, sign, 0.0, -2.0 - gamma, 0.0)] + [
                    (dk if t0 else big, sign * (dk - big), 0.0, e, 0.0)
                    for dk, e in zip(d, es)]))
    h = np.array([half[0] for half in halves])
    A, B, Y, E, S = np.moveaxis(np.array([half[1] for half in halves]), 2, 0)
    at_mark = (A == 0.0) & (Y == 0.0)
    e0 = np.sum(np.where(at_mark, E, 0.0), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.min(np.where(~at_mark & (B > 0.0), np.hypot(A, Y) / B, math.inf), axis=1)
    deep = 0.5 * h * np.maximum(np.exp(-_LOG_DEPTH / (1.0 + e0)), 1e-150)
    gap = np.where(np.any(at_mark & (S != 0.0), axis=1), np.minimum(gap, deep), gap)
    owner, lo, hi = graded_panels(np.arange(h.size), np.zeros(h.size), h, gap,
                                   np.full(h.size, math.inf))
    # a high power varies faster than 16 nodes resolve: a panel where the log
    # of a form may change by |e B| (hi - lo) / min r > 16 is cut into up to
    # 64 equal parts; a second pass cuts those next to a mark
    for _ in range(2):
        fa, fb, fy, fe = A[owner], B[owner], Y[owner], E[owner]
        near = np.hypot(np.minimum(fa + fb * lo[:, None], fa + fb * hi[:, None]), fy)
        with np.errstate(divide="ignore", invalid="ignore"):
            span = np.abs(fe * fb) * (hi - lo)[:, None] / near
        span[(fe == 0.0) | (at_mark[owner] & (lo == 0.0)[:, None]) | np.isnan(span)] = 0.0
        parts = np.clip(np.ceil(np.max(span, axis=1) / 16.0), 1, 64).astype(np.intp)
        j = np.arange(parts.sum()) - np.repeat(np.cumsum(parts) - parts, parts)
        k = np.repeat(parts, parts)
        owner, lo, hi, width = (np.repeat(v, parts) for v in (owner, lo, hi, hi - lo))
        lo, hi = lo + width * (j / k), np.where(j + 1 == k, hi, lo + width * ((j + 1) / k))
    # every panel, then every panel halved
    mid = lo + 0.5 * (hi - lo)
    fine = np.repeat([False, True, True], lo.size)
    owner = np.tile(owner, 3)
    lo, hi = np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi])
    jacobi = (lo == 0.0) & (e0[owner] != 0.0)
    fa, fb, fy, fe, fs, fm = (f[owner][:, :, None] for f in (A, B, Y, E, S, at_mark))
    with np.errstate(divide="ignore", invalid="ignore"):
        u, logw, logjac = panel_rule(lo, hi, np.where(jacobi, e0[owner], 0.0))
        logr = np.log(np.hypot(fa + fb * u[:, None, :], fy))
        # on a Gauss-Jacobi panel the rule's weight holds the powers of u
        power = np.where(jacobi[:, None, None] & fm, np.log(fb), logr)
        terms = (np.sum(fe * power + np.where(fs != 0.0, fs * np.log(-logr), 0.0), axis=1)
                 + logw + logjac[:, None])
    top = float(np.max(terms))
    return tuple(top + math.log(float(np.sum(np.exp(terms[fine == f] - top))))
                 for f in (False, True))
