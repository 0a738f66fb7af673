"""Whole-line integrals of products of radial profiles (``log_line_integral``).

The maximal check (``verify``), a product weight's integrals on the line
(``weights``) and line atoms' norms at p0 != 2 (``atoms``) import it only
when they run: a module of its own keeps the campaign processes and other
weights' classify processes, which compile their source without written
bytecode, from compiling it.  Its panels come from the line's one panel
stage in ``panels``, which the near field of T shares.
"""

from __future__ import annotations

import math

import numpy as np

from .panels import line_halves, line_nodes, line_panels
from .quadrature import _KNEE


def log_line_integral(factors, a: float, b: float):
    """log of the integral over [a, b] of prod_k P_k(|x - m_k|), for
    ``factors`` [(m_k, P_k)] with finite m_k and -inf <= a <= b <= inf, and
    its log with every panel halved: a pair, +inf when the integral diverges
    (a mark in [a, b] with summed exponent <= -1, or an infinite end where
    gamma = sum_k e_k >= -1) and -inf when a == b.

    The marks (the m_k, the knees m_k +- 1/e of log factors, the finite
    ends) split [a, b] into pieces, one group of the line's panel stage
    (``panels``), which halves them, grades each half toward its mark and
    cuts a panel across which a high power changes too fast.  A power's
    centre may be complex, x + iy with finite a and b (the atoms' zeros): x
    is a mark.  An infinite end beyond the last mark v takes x = v +- D (1 -
    t) / t, d_k = |v - m_k|, D = max d_k: the integrand D t^(-gamma-2)
    prod_k (D (1 - t) + d_k t)^e_k gives two more halves, toward t = 0 and
    t = 1, whose forms (A + B u, in the offset u from t0) join the stage's.
    The sums are logarithms.
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
    # the finite halves, each padded by two neutral forms to a tail's length
    _, mark, way, length, forms = line_halves([marks], [cs], [ys], [es], [ss])
    forms = np.concatenate([np.zeros((5, length.size, 2)), forms], axis=2)
    forms[0, :, :2] = 1.0
    for v, out, end in ((marks[0], -1.0, a), (marks[-1], 1.0, b)):
        if math.isinf(end):
            d = [out * (v - c) for c in cs]
            big = max(d)
            # t = t0 + sign u: the Jacobian D, t itself and each D (1 - t) + d_k t
            for t0, sign in ((0.0, 1.0), (1.0, -1.0)):
                tail = [(big, 0.0, 0.0, 1.0, 0.0), (t0, sign, 0.0, -2.0 - gamma, 0.0)] + [
                    (dk if t0 else big, sign * (dk - big), 0.0, e, 0.0) for dk, e in zip(d, es)]
                mark, way = np.append(mark, t0), np.append(way, sign)
                length = np.append(length, 0.5)
                forms = np.concatenate([forms, np.transpose(tail)[:, None, :]], axis=1)
    half, lo, hi = line_panels(length, forms)
    # every panel, then every panel halved
    mid = lo + 0.5 * (hi - lo)
    fine = np.repeat([False, True, True], lo.size)
    half = np.tile(half, 3)
    lo, hi = np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi])
    terms = np.concatenate([t for _, _, t in line_nodes(half, lo, hi, mark, way, forms)])
    top = float(np.max(terms))
    return tuple(top + math.log(float(np.sum(np.exp(terms[fine == f] - top))))
                 for f in (False, True))
