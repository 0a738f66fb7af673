"""Panels graded geometrically toward singular points beyond their ends,
and the 16-point rules on them.

The near field of ``operators`` (a kernel preimage),
``line_integral.log_line_integral`` (a weight factor's centre) and
``plane_integral.log_disk_integral`` (a centre, in angle and along a ray)
cut their pieces here; a module of its own keeps a product weight's
classify process from compiling ``operators``.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import _GL16_W, _GL16_X, gauss_jacobi

# a piece is cut this fraction of its length from an end that lies close to
# a singular point beyond it
_GRADING = 0.25


def graded_panels(point, u, v, gap_lo, gap_hi):
    """Split pieces [u, v] into panels graded toward a singular point beyond
    an end: a kernel preimage in ``operators``, a factor's centre in
    ``line_integral.log_line_integral``.

    A piece whose end is closer than half its length to a point beyond it
    is cut at sigma = _GRADING of its length from that end, again and again,
    until the innermost panel is at most twice its distance long; a piece with
    such points beyond both ends is halved first.  Each panel is then at
    least sigma / (1 - sigma) of its length away from every outside point.
    Returns (point, lo, hi) per panel.
    """
    length = v - u
    need_lo = gap_lo < 0.5 * length
    need_hi = gap_hi < 0.5 * length
    both = need_lo & need_hi
    mid = u + 0.5 * length
    # segments, each graded toward its near end: (owner, near end, far end,
    # gap beyond the near end)
    near = np.concatenate([np.where(need_hi & ~both, v, u), v[both]])
    far = np.concatenate([np.where(both, mid, np.where(need_hi, u, v)), mid[both]])
    gap = np.concatenate([np.where(need_hi & ~both, gap_hi,
                                   np.where(need_lo, gap_lo, math.inf)), gap_hi[both]])
    owner = np.concatenate([point, point[both]])
    span = far - near
    with np.errstate(divide="ignore"):
        levels = np.ceil(np.log(2.0 * gap / np.abs(span)) / math.log(_GRADING))
    levels = np.where(2.0 * gap < np.abs(span), np.maximum(levels, 1.0), 0.0).astype(np.intp)
    seg = np.repeat(np.arange(near.size), levels + 1)
    step = np.arange(seg.size) - np.repeat(np.cumsum(levels + 1) - levels - 1, levels + 1)
    # panel `step` runs from sigma^(depth + 1) to sigma^depth of the span
    # (from the near end itself for step 0, to the far end itself at depth 0)
    depth = levels[seg] - step
    a = np.where(step == 0, near[seg], near[seg] + _GRADING ** (depth + 1) * span[seg])
    b = np.where(depth == 0, far[seg], near[seg] + _GRADING ** depth * span[seg])
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    ok = 0.5 * (hi - lo) > 0.0
    return owner[seg][ok], lo[ok], hi[ok]


def panel_rule(lo, hi, level):
    """16-point rules on panels [lo, hi]: the nodes, their log weights and
    the log Jacobian (hi - lo)**(1 + level), Gauss-Jacobi for u**level (u
    from lo) where ``level`` is nonzero and Gauss-Legendre elsewhere
    (``quadrature.gauss_jacobi``)."""
    width = hi - lo
    x = np.tile(_GL16_X, (width.size, 1))
    logw = np.tile(np.log(_GL16_W), (width.size, 1))
    for e in set(level[level != 0.0].tolist()):
        rule = gauss_jacobi(16, 0.0, e)
        sel = level == e
        x[sel] = 0.5 * rule[1]
        logw[sel] = rule[3] - (1.0 + e) * math.log(2.0)
    return lo[:, None] + width[:, None] * x, logw, (1.0 + level) * np.log(width)
