"""Panels graded geometrically toward singular points, the 16-point rules
on them, and the line's one panel stage: ``line_halves`` halves the pieces
between each group's marks, ``line_panels`` grades and cuts the halves'
panels and ``line_nodes`` weights their nodes.  The near field of T f in
``operators`` passes one group per evaluation point, ``log_line_integral``
one per call and ``log_disk_integral`` one per ray (its angles take
``graded_panels`` and ``panel_rule`` directly).  A module of its own keeps a
product weight's classify process from compiling ``operators``.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import _GL16_W, _GL16_X, _KNEE, gauss_jacobi

# a piece is cut this fraction of its length from an end that lies close to
# a singular point beyond it
_GRADING = 0.25
# toward a log factor's centre the grading goes on until the innermost panel
# holds at most e**-_LOG_DEPTH of its half
_LOG_DEPTH = 36.0
# panels weighted at once (bounds the panels x factors x nodes temporaries)
_BLOCK = 256


def graded_panels(length, gap):
    """Split halves [0, length] into panels graded toward 0, beyond which a
    singular point lies ``gap`` away (a mark on the line, an angle or a
    ray's mark in the plane): a half whose gap is under half its length is
    cut at sigma = _GRADING of its length from 0, again and again, until the
    innermost panel is at most twice its gap long, so each panel is at least
    sigma / (1 - sigma) of its length from the point.  Returns (half, lo,
    hi) per panel.
    """
    with np.errstate(divide="ignore"):
        levels = np.ceil(np.log(2.0 * gap / length) / math.log(_GRADING))
    levels = np.where(2.0 * gap < length, np.maximum(levels, 1.0), 0.0).astype(np.intp)
    half = np.repeat(np.arange(length.size), levels + 1)
    step = np.arange(half.size) - np.repeat(np.cumsum(levels + 1) - levels - 1, levels + 1)
    # panel `step` runs from sigma^(depth + 1) to sigma^depth of the length
    # (from 0 itself for step 0, to the far end itself at depth 0)
    depth = levels[half] - step
    lo = np.where(step == 0, 0.0, _GRADING ** (depth + 1) * length[half])
    hi = np.where(depth == 0, length[half], _GRADING ** depth * length[half])
    ok = 0.5 * (hi - lo) > 0.0
    return half[ok], lo[ok], hi[ok]


def panel_rule(lo, hi, level):
    """16-point rules on panels [lo, hi]: the nodes, their log weights and
    the log Jacobian (hi - lo)**(1 + level), Gauss-Jacobi for u**level (u
    from lo) where ``level`` is nonzero and Gauss-Legendre elsewhere
    (``quadrature.gauss_jacobi``)."""
    width = hi - lo
    x, logw = np.empty((2, width.size, 16))
    x[:], logw[:] = _GL16_X, np.log(_GL16_W)
    for e in set(level[level != 0.0].tolist()):
        rule = gauss_jacobi(16, 0.0, e)
        sel = level == e
        x[sel] = 0.5 * (1.0 + rule[0])
        logw[sel] = rule[1] - (1.0 + e) * math.log(2.0)
    return lo[:, None] + width[:, None] * x, logw, (1.0 + level) * np.log(width)


def line_halves(marks, centre, offset, exponent, power):
    """The halves of every group's pieces, with their factors as forms.

    Row g of ``marks`` holds group g's increasing marks (repeats allowed);
    its factor k is r**e log(1/r)**s of the distance r from c + iy, the
    four arguments broadcast to (groups, factors).  A half runs from its
    mark p (``way`` +1 up, -1 down) for ``length`` h, half its piece, so
    the piece's other mark lies h beyond it.  At a node's offset u from p a
    factor's r is hypot(A + B u, y), A = |p - c| and B = +-1 (+1 for c = p),
    so no distance is lost to rounding; a log power is dropped on a half
    whose middle lies beyond the knee 1/e.  Returns (group, mark, way,
    length) per half and the forms (A, B, Y, E, S), each (halves, factors).
    """
    marks = np.asarray(marks, dtype=float)
    groups, count = marks.shape
    # per piece: the half at its lower mark going up, then the one at its upper mark
    length = np.repeat(0.5 * (marks[:, 1:] - marks[:, :-1]).ravel(), 2)
    mark = np.stack([marks[:, :-1], marks[:, 1:]], axis=2).ravel()
    way = np.tile([1.0, -1.0], length.size // 2)
    group = np.repeat(np.arange(groups), 2 * (count - 1))
    keep = length > 0.0
    group, mark, way, length = group[keep], mark[keep], way[keep], length[keep]
    c, y, e, s = (np.broadcast_to(np.asarray(f, dtype=float), (groups, np.shape(centre)[-1]))
                  [group] for f in (centre, offset, exponent, power))
    d = mark[:, None] - c
    A = np.abs(d)
    B = np.where(d != 0.0, way[:, None] * np.sign(d), 1.0)
    S = np.where(A + 0.5 * length[:, None] * B < _KNEE, s, 0.0)
    return group, mark, way, length, np.array([A, B, y, e, S])


def line_panels(length, forms):
    """Panels on the halves [0, length] with forms (A, B, Y, E, S)
    (``line_halves``), as offsets from the mark: (half, lo, hi) per panel.
    Each half is graded toward its mark (``graded_panels``) to its nearest
    centre off it, hypot(A, Y) / |B| (ahead too: the plane clamps centres to
    its circle), and deeper toward a log factor at the mark, until the
    innermost panel holds at most e**-_LOG_DEPTH of the half's integral.  A
    graded panel lies a third of its width or more from every zero, so only
    where some |e| > 5 may the log of a form change by |e B| (hi - lo) /
    min r > 16 on a panel, which is cut into up to 64 equal parts (a second
    pass cuts those next to a mark).
    """
    A, B, Y, E, S = forms
    at_mark = (A == 0.0) & (Y == 0.0)
    e0 = np.sum(np.where(at_mark, E, 0.0), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.min(np.where(at_mark, math.inf, np.hypot(A, Y) / np.abs(B)), axis=1)
    deep = 0.5 * length * np.maximum(np.exp(-_LOG_DEPTH / (1.0 + e0)), 1e-150)
    gap = np.where(np.any(at_mark & (S != 0.0), axis=1), np.minimum(gap, deep), gap)
    owner, lo, hi = graded_panels(length, gap)
    for _ in range(2 if np.max(np.abs(E), initial=0.0) > 5.0 else 0):
        fa, fb, fy, fe = A[owner], B[owner], Y[owner], E[owner]
        near = np.hypot(np.minimum(fa + fb * lo[:, None], fa + fb * hi[:, None]), fy)
        with np.errstate(divide="ignore", invalid="ignore"):
            span = np.abs(fe * fb) * (hi - lo)[:, None] / near
        span[(fe == 0.0) | (at_mark[owner] & (lo == 0.0)[:, None]) | np.isnan(span)] = 0.0
        parts = np.clip(np.ceil(np.max(span, axis=1) / 16.0), 1, 64).astype(np.intp)
        if np.all(parts == 1):
            break
        j = np.arange(parts.sum()) - np.repeat(np.cumsum(parts) - parts, parts)
        k = np.repeat(parts, parts)
        owner, lo, hi, width = (np.repeat(v, parts) for v in (owner, lo, hi, hi - lo))
        lo, hi = lo + width * (j / k), np.where(j + 1 == k, hi, lo + width * ((j + 1) / k))
    return owner, lo, hi


def line_nodes(half, lo, hi, mark, way, forms):
    """The 16 nodes of the panels (``line_panels``) in blocks of _BLOCK
    panels: yields per block each panel's half and, in rows of 16, each
    node's position mark + way u and log(weight x Jacobian x factors).  The
    panel at a mark with summed exponent e0 != 0 takes Gauss-Jacobi for
    u**e0 and every other one Gauss-Legendre (``panel_rule``; Davis &
    Rabinowitz, Methods of Numerical Integration, 1984).  Each term is
    formed on its own, so it does not depend on the other panels of a call.
    """
    at_mark = (forms[0] == 0.0) & (forms[2] == 0.0)
    e0 = np.sum(np.where(at_mark, forms[3], 0.0), axis=1)
    ys = slice(np.flatnonzero(np.any(forms[2], axis=0)).max(initial=-1) + 1)  # hypot(r, 0) = |r|
    for k in range(0, lo.size, _BLOCK):
        own, a, b = half[k:k + _BLOCK], lo[k:k + _BLOCK], hi[k:k + _BLOCK]
        jacobi = (a == 0.0) & (e0[own] != 0.0)
        u, logw, logjac = panel_rule(a, b, np.where(jacobi, e0[own], 0.0))
        # factor-major, so the factors' sum and hypot run over whole slabs
        fa, fb, fy, fe, fs = np.take(forms, own, axis=1).transpose(0, 2, 1).copy()[..., None]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = fb * u
            r += fa
            np.hypot(r[ys], fy[ys], out=r[ys])
            logr = np.log(np.abs(r, out=r), out=r)
            power = fe * logr
            # on a Gauss-Jacobi panel the rule's weight holds u**e0, so a
            # factor (B u)**e at the mark leaves B**e
            np.copyto(power, fe * np.log(fb), where=(jacobi[:, None] & at_mark[own]).T[..., None])
            if np.any(fs):
                power += np.where(fs != 0.0, fs * np.log(-logr), 0.0)
            terms = np.sum(power, axis=0) + logw + logjac[:, None]
        yield own, mark[own][:, None] + way[own][:, None] * u, terms
