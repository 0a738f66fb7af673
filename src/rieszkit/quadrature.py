"""Composite-midpoint quadrature with exact radial handling of singular factors.

Every integrand handled here factors, near finitely many points c, as
F(y) = P(|y - c|) * G(y) with G bounded and P one radial profile
r**e * L(r)**s, L(r) = log(1/r) below the knee 1/e and 1 above it.  On
the line every cell owned by c integrates P exactly against G frozen at
the cell midpoint; on disks a small polar patch around c does, and every
other cell uses the plain midpoint rule.  This removes the dominant
quadrature error exactly where the integrand blows up, so ball averages
of singular weights and product-kernel integrals converge at modest
resolutions.  The primitives of P are closed forms or fixed Gauss-Legendre
sums (``RadialProfile``); no adaptive quadrature runs.

Supported dimensions: 1 (intervals) and 2 (disks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special as _special


_SING_MERGE_TOL = 1e-12


# Patch geometry around singular points.  On the line a point within
# _PATCH_CELLS widest-cell widths of the interval is active and each cell
# takes the profile of its nearest active point; on disks each point gets a
# polar patch of radius _PATCH_CELLS cells in _PATCH_SHELLS shells by
# _PATCH_SECTORS sectors, and cells that straddle the disk or a patch edge
# are resolved on a _DISK_SUBSAMPLE x _DISK_SUBSAMPLE subgrid.
_PATCH_CELLS = 8
_PATCH_SHELLS = 16
_PATCH_SECTORS = 64
_DISK_SUBSAMPLE = 8


@dataclass(frozen=True)
class QuadratureScheme:
    """Grid resolution and tolerance for ball integrals.

    ``resolution`` counts cells per ball radius (per axis in dimension 2).
    ``tol`` bounds the change that a convergence check (``apply_T``) accepts
    when the resolution doubles.  Singular points always take product
    integration on the fixed patch geometry above.
    """

    resolution: int = 512
    tol: float = 1e-6

    def __post_init__(self):
        if self.resolution < 16:
            raise ValueError("quadrature resolution must be at least 16")
        if self.tol <= 0:
            raise ValueError("quadrature tolerance must be positive")

    def refined(self, factor: int = 2) -> "QuadratureScheme":
        return replace(self, resolution=int(self.resolution * factor))


def default_scheme(dimension: int) -> QuadratureScheme:
    """Default grids: 2^9 cells per radius on the line, 2^6 per axis on disks."""
    if dimension == 1:
        return QuadratureScheme(resolution=512, tol=1e-6)
    if dimension == 2:
        return QuadratureScheme(resolution=64, tol=1e-3)
    raise ValueError("only dimensions 1 and 2 are supported")


# ---------------------------------------------------------------------------
# Radial profiles: the factor P(r) that is integrated exactly on patches.
# ---------------------------------------------------------------------------


_KNEE = math.exp(-1.0)

# 8-point Gauss-Legendre rule mapped to [0, 1], from the correctly rounded
# positive nodes and weights on [-1, 1] (no eigensolver call at import)
_GL_HALF_X = np.array([0.1834346424956498, 0.525532409916329, 0.7966664774136267,
                       0.9602898564975363])
_GL_HALF_W = np.array([0.362683783378362, 0.31370664587788727, 0.22238103445337448,
                       0.10122853629037626])
_GL_X = 0.5 * (1.0 + np.concatenate([-_GL_HALF_X[::-1], _GL_HALF_X]))
_GL_W = 0.5 * np.concatenate([_GL_HALF_W[::-1], _GL_HALF_W])
# cells per Gauss-Legendre batch: bounds the (cells x nodes) temporaries
_CHUNK = 4096


class RadialProfile:
    """P(r) = r**exponent * L(r)**s with L(r) = log(1/r) for r < 1/e and 1 above.

    ``primitive(u, v, n)`` is the integral of P(r) r**(n-1) over [u, v].
    With g = exponent + n it splits at the knee 1/e:

    * s == 0, or the part above the knee: (v**g - u**g) / g (log(v/u) at g == 0);
    * a cell below the knee with u > 0: 8-point Gauss-Legendre in
      t = log(1/r) (``_log_cells``), within 1e-15 of 40-digit values;
    * a cell from 0: the same sum until exp(-g t) has fallen by e**-18, then
      g**-(s+1) Gamma(s+1, g t) for the rest (``_upper_gamma``); within 2e-15
      of 40-digit values down to v = 1e-12.
    """

    __slots__ = ("exponent", "s")

    def __init__(self, exponent: float, s: float):
        self.exponent = float(exponent)
        self.s = float(s)

    def value(self, r):
        r = np.asarray(r, dtype=float)
        if self.s == 0.0:
            return np.power(r, self.exponent)
        out = np.ones_like(r)
        mask = r < _KNEE
        if np.any(mask):
            # masked-out slots get the knee value so the discarded branch
            # stays finite (log = 1)
            safe = np.maximum(np.where(mask, r, _KNEE), 1e-300)
            out = np.where(mask, np.log(1.0 / safe) ** self.s, out)
        if self.exponent != 0.0:
            out = np.power(r, self.exponent) * out
        return out

    def integrable(self, dim: int) -> bool:
        return self.exponent + dim > 0

    def primitive(self, u: float, v: float, dim: int) -> float:
        """Exact integral of P(r) * r**(dim-1) over [u, v]."""
        g = self.exponent + dim
        if self.s != 0.0:
            return float(self._log_primitive(np.array([u], dtype=float),
                                             np.array([v], dtype=float), dim)[0])
        if u <= 0.0 and g <= 0.0:
            return math.inf
        if g == 0.0:
            return math.log(v / u)
        return (v**g - u**g) / g

    def primitive_vec(self, u: np.ndarray, v: np.ndarray, dim: int) -> np.ndarray:
        g = self.exponent + dim
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if self.s != 0.0:
            return self._log_primitive(u, v, dim)
        if g == 0.0:
            with np.errstate(divide="ignore"):
                return np.where(u > 0, np.log(v / np.maximum(u, 1e-300)), math.inf)
        with np.errstate(divide="ignore"):
            out = (v**g - u**g) / g
        if g < 0.0:
            out = np.where(u <= 0.0, math.inf, out)
        return out

    def _log_primitive(self, u: np.ndarray, v: np.ndarray, dim: int) -> np.ndarray:
        g = self.exponent + dim
        out = np.zeros(u.shape)
        lo = np.maximum(u, _KNEE)
        flat = v > lo
        if np.any(flat):
            a, b = lo[flat], v[flat]
            out[flat] = np.log(b / a) if g == 0.0 else (b**g - a**g) / g
        top = np.minimum(v, _KNEE)
        cells = np.flatnonzero((u < top) & (u > 0.0))
        for k in range(0, cells.size, _CHUNK):
            part = cells[k:k + _CHUNK]
            out[part] += _log_cells(u[part], top[part], g, self.s)
        origin = (u <= 0.0) & (top > 0.0)
        if np.any(origin):
            if g <= 0.0:
                out[origin] = math.inf
            else:
                # the closed form alone loses up to 2.6e-9 to its downward
                # recurrence (s = -3.25, x = 69); past the cut, where exp(-g t)
                # has fallen by e**-18, that error no longer shows (t-length
                # capped at 300 against underflow)
                cut = top[origin] * math.exp(-min(18.0 / g, 300.0))
                a = self.s + 1.0
                out[origin] += (_log_cells(cut, top[origin], g, self.s)
                                + g ** -a * _upper_gamma(a, -g * np.log(cut)))
        return out

    def __repr__(self):
        return f"{type(self).__name__}({self.exponent}, {self.s})"


class PowerProfile(RadialProfile):
    """P(r) = r**exponent."""

    __slots__ = ()

    def __init__(self, exponent: float):
        super().__init__(exponent, 0.0)


class LogPowerProfile(RadialProfile):
    """P(r) = (log(1/r))**s for r < 1/e and 1 otherwise."""

    __slots__ = ()

    def __init__(self, s: float):
        super().__init__(0.0, s)


class ProductProfile(RadialProfile):
    """A power and a log power at one point (coincident singularities)."""

    __slots__ = ()


def _log_cells(u: np.ndarray, v: np.ndarray, g: float, s: float) -> np.ndarray:
    """Integral of r**(g-1) log(1/r)**s over each [u, v], 0 < u < v <= 1/e.

    In t = log(1/r) it is v**g times the integral of exp(-g tau) (t_v + tau)**s
    over tau in [0, log1p((v-u)/u)], t_v = log(1/v) >= 1, so thin cells
    subtract nothing.  Panels of t-length 1/4 keep 8 nodes exact to ~1e-16 at
    t = 1, where t**s bends most (length 1 loses 2.7e-9 there at s = -3.25).
    """
    t_v = -np.log(v)
    length = np.log1p((v - u) / u)
    panels = np.maximum(np.ceil(4.0 * length), 1.0).astype(np.intp)
    cell = np.repeat(np.arange(u.size), panels)
    first = np.cumsum(panels) - panels
    h = (length / panels)[cell]
    tau = ((np.arange(cell.size) - first[cell]) * h)[:, None] + h[:, None] * _GL_X
    f = np.exp(-g * tau) * (t_v[cell][:, None] + tau) ** s
    sums = np.bincount(cell, weights=h * (f @ _GL_W), minlength=u.size)
    return v**g * sums


def _upper_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """Gamma(a, x) for x > 0 and any real a.

    For a <= 0 it starts from Gamma(0, x) = E1(x) (integer a) or from the
    order in (0, 1) and applies Gamma(a, x) = (Gamma(a+1, x) - x**a e**-x) / a
    downward (DLMF 8.8.2).
    """
    if a > 0.0:
        return _special.gamma(a) * _special.gammaincc(a, x)
    steps = math.ceil(-a)
    b = a + steps
    val = _special.exp1(x) if b == 0.0 else _special.gamma(b) * _special.gammaincc(b, x)
    for _ in range(steps):
        b -= 1.0
        val = (val - x**b * np.exp(-x)) / b
    return val


def combine_profiles(a, b):
    """Product of two profiles at one point: exponents and log powers add."""
    e, s = a.exponent + b.exponent, a.s + b.s
    if s == 0.0:
        return PowerProfile(e)
    return LogPowerProfile(s) if e == 0.0 else ProductProfile(e, s)


@dataclass(frozen=True)
class RadialSingularity:
    """Point c and radial profile P such that integrand / P(|y-c|) stays bounded."""

    center: tuple
    profile: object

    def center_array(self) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.center, dtype=float))


def _merge_coincident(active):
    """Combine singularities at (numerically) the same point."""
    merged = []
    for c, prof, rho in active:
        for k, (c2, prof2, rho2) in enumerate(merged):
            scale = max(1.0, float(np.max(np.abs(c))), float(np.max(np.abs(c2))))
            if float(np.max(np.abs(c - c2))) <= _SING_MERGE_TOL * scale:
                merged[k] = (c2, combine_profiles(prof2, prof), max(rho, rho2))
                break
        else:
            merged.append((c, prof, rho))
    return merged


def _shrink_overlaps(active, floor):
    """Shrink patch radii so distinct patches stay disjoint."""
    out = [list(t) for t in active]
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            d = float(np.linalg.norm(out[i][0] - out[j][0]))
            cap = max(floor, 0.5 * d * (1.0 - 1e-9))
            out[i][2] = min(out[i][2], cap)
            out[j][2] = min(out[j][2], cap)
    return [tuple(t) for t in out]


# ---------------------------------------------------------------------------
# One-dimensional cells
# ---------------------------------------------------------------------------


def integrate_cells_1d(fn, edges, singularities=()):
    """Product-integration midpoint rule over the cells given by ``edges``.

    ``fn`` maps a 1-d array of points to integrand values.  Singular points
    within _PATCH_CELLS widest-cell widths of the edges are active; each
    cell is assigned to its nearest active point, whose radial profile is
    integrated exactly over the cell against the remaining (bounded) factor
    frozen at the cell midpoint, so accuracy is O(h^2) up to the singularity
    itself.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = float(edges[0]), float(edges[-1])
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)

    reach = _PATCH_CELLS * float(np.max(widths))
    active = []
    for s in singularities:
        c = float(s.center_array()[0])
        if lo - reach < c < hi + reach:
            active.append((np.array([c]), s.profile, 0.0))
    if not active:
        return float(np.sum(fn(mids) * widths))
    active = _merge_coincident(active)
    centers = np.array([float(t[0][0]) for t in active])

    owner = np.argmin(np.abs(mids[:, None] - centers[None, :]), axis=1)
    total = 0.0
    for k, (c_arr, prof, _) in enumerate(active):
        c = float(c_arr[0])
        sel = owner == k
        if not np.any(sel):
            continue
        u = edges[:-1][sel]
        v = edges[1:][sel]
        contains = (u < c) & (c < v)
        plain = ~contains
        if np.any(plain):
            up, vp = u[plain], v[plain]
            rl = np.where(up >= c, up - c, c - vp)
            rh = np.where(up >= c, vp - c, c - up)
            rl = np.maximum(rl, 0.0)
            wgt = prof.primitive_vec(rl, rh, 1)
            if np.any(~np.isfinite(wgt)):
                return math.inf
            pts = 0.5 * (up + vp)
            g = fn(pts) / prof.value(np.abs(pts - c))
            total += float(np.sum(g * wgt))
        for uc, vc in zip(u[contains], v[contains]):
            if not prof.integrable(1):
                return math.inf
            for a, b, sign in ((uc, c, -1.0), (c, vc, +1.0)):
                if b - a <= 0:
                    continue
                wgt = prof.primitive(0.0, b - a, 1)
                # sample the bounded factor at the sub-cell midpoint, which
                # stays inside the support even for a sliver next to an
                # endpoint; a sub-ulp sliver whose midpoint rounds onto the
                # center takes its outer edge instead
                pt = c + sign * 0.5 * (b - a)
                if pt == c:
                    pt = b if sign > 0 else a
                g = float(fn(np.array([pt]))[0]) / float(prof.value(abs(pt - c)))
                total += wgt * g
    return total


def graded_edges(near, far, h0, block=64, growth=2.0, max_cells=200000):
    """Cell edges from ``near`` to ``far`` whose width starts at ``h0`` at the
    near end and grows by ``growth`` every ``block`` cells.  Returns an
    increasing array regardless of the orientation of (near, far)."""
    near = float(near)
    far = float(far)
    dist = abs(far - near)
    if dist <= 0:
        return np.array([min(near, far), max(near, far)])
    offs = [0.0]
    h = float(h0)
    count = 0
    while offs[-1] < dist and len(offs) < max_cells:
        offs.append(min(offs[-1] + h, dist))
        count += 1
        if count % block == 0:
            h *= growth
    offs = np.asarray(offs)
    if far >= near:
        return near + offs
    return np.sort(near - offs)


# ---------------------------------------------------------------------------
# Two-dimensional disks
# ---------------------------------------------------------------------------


def integrate_disk(fn, center, radius, resolution, singularities=()):
    """Integrate ``fn`` over the disk B(center, radius).

    Cartesian midpoint cells of width h = radius / resolution cover the disk
    (boundary cells are resolved on a subgrid of _DISK_SUBSAMPLE^2 points);
    disks of radius _PATCH_CELLS * h around declared singular points are
    integrated in polar form (_PATCH_SHELLS shells, _PATCH_SECTORS sectors)
    with exact radial weights.
    """
    center = np.asarray(center, dtype=float).reshape(2)
    radius = float(radius)
    ncell = 2 * int(resolution)
    h = radius / int(resolution)
    ax0 = np.linspace(center[0] - radius, center[0] + radius, ncell + 1)
    ax1 = np.linspace(center[1] - radius, center[1] + radius, ncell + 1)
    m0 = 0.5 * (ax0[:-1] + ax0[1:])
    m1 = 0.5 * (ax1[:-1] + ax1[1:])
    X, Y = np.meshgrid(m0, m1, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    half_diag = h * math.sqrt(0.5)

    dist_ball = np.linalg.norm(pts - center, axis=1)
    fully_in = dist_ball <= radius - half_diag
    fully_out = dist_ball >= radius + half_diag

    active = []
    for s in singularities:
        c = s.center_array().reshape(2)
        rho = _PATCH_CELLS * h
        if float(np.linalg.norm(c - center)) < radius + rho:
            active.append((c, s.profile, rho))
    active = _merge_coincident(active)
    active = _shrink_overlaps(active, floor=h)

    in_patch = np.zeros(pts.shape[0], dtype=bool)
    near_patch = np.zeros(pts.shape[0], dtype=bool)
    for c, _, rho in active:
        d = np.linalg.norm(pts - c, axis=1)
        in_patch |= d <= rho - half_diag
        near_patch |= (d < rho + half_diag) & (d > rho - half_diag)

    clean = fully_in & ~in_patch & ~near_patch
    straddle = ~fully_out & ~in_patch & ~clean

    total = h * h * float(np.sum(fn(pts[clean]))) if np.any(clean) else 0.0

    if np.any(straddle):
        # resolve boundary cells (ball edge or patch edge) on a subgrid
        off = (np.arange(_DISK_SUBSAMPLE) + 0.5) / _DISK_SUBSAMPLE - 0.5
        OX, OY = np.meshgrid(off * h, off * h, indexing="ij")
        offsets = np.column_stack([OX.ravel(), OY.ravel()])
        sp = (pts[straddle][:, None, :] + offsets[None, :, :]).reshape(-1, 2)
        ok = np.linalg.norm(sp - center, axis=1) <= radius
        for c, _, rho in active:
            ok &= np.linalg.norm(sp - c, axis=1) > rho
        if np.any(ok):
            total += (h / _DISK_SUBSAMPLE) ** 2 * float(np.sum(fn(sp[ok])))

    theta = (np.arange(_PATCH_SECTORS) + 0.5) * (2.0 * math.pi / _PATCH_SECTORS)
    directions = np.column_stack([np.cos(theta), np.sin(theta)])
    for c, prof, rho in active:
        if not prof.integrable(2):
            if float(np.linalg.norm(c - center)) < radius:
                return math.inf
            continue
        shells = np.linspace(0.0, rho, _PATCH_SHELLS + 1)
        rmid = 0.5 * (shells[:-1] + shells[1:])
        ppts = (c[None, None, :] + rmid[:, None, None] * directions[None, :, :]).reshape(-1, 2)
        inside = np.linalg.norm(ppts - center, axis=1) <= radius
        vals = np.zeros(ppts.shape[0])
        if np.any(inside):
            vals[inside] = fn(ppts[inside])
        vals = vals.reshape(_PATCH_SHELLS, _PATCH_SECTORS)
        pv = prof.value(rmid)
        gsum = vals.sum(axis=1) / pv
        dtheta = 2.0 * math.pi / _PATCH_SECTORS
        for k in range(_PATCH_SHELLS):
            wgt = prof.primitive(float(shells[k]), float(shells[k + 1]), 2)
            if not math.isfinite(wgt):
                return math.inf
            total += wgt * dtheta * float(gsum[k])
    return total


def integrate_ball(fn, ball, scheme=None, singularities=()):
    """Integrate a vectorized ``fn`` (points of shape (N, n) -> values) over a ball."""
    n = ball.dimension
    if scheme is None:
        scheme = default_scheme(n)
    if n == 1:
        lo = float(ball.center[0] - ball.radius)
        hi = float(ball.center[0] + ball.radius)
        edges = np.linspace(lo, hi, 2 * scheme.resolution + 1)
        return integrate_cells_1d(lambda ys: fn(ys[:, None]), edges, singularities)
    if n == 2:
        return integrate_disk(fn, ball.center, ball.radius, scheme.resolution,
                              singularities)
    raise ValueError("only dimensions 1 and 2 are supported")


def lebesgue_ball(dimension: int, radius: float) -> float:
    if dimension == 1:
        return 2.0 * radius
    if dimension == 2:
        return math.pi * radius * radius
    raise ValueError("only dimensions 1 and 2 are supported")

