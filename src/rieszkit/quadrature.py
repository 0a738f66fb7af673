"""Composite-midpoint quadrature with exact radial handling of singular factors.

Every integrand handled here factors, near finitely many points c, as
F(y) = P(|y - c|) * G(y) with G bounded and P one radial profile
r**e * L(r)**s, L(r) = log(1/r) below the knee 1/e and 1 above it.  On
the line the rule is data: ``cell_weights`` makes every singular point an
edge and gives each cell its midpoint and a weight, the exact integral of P
over the cell divided by P at the midpoint for a cell owned by c, so that
the sum of F(mids) * weights integrates P exactly against G frozen at the
midpoints.  On disks a small polar patch around c does the same, and every
other cell uses the plain midpoint rule.  This removes the dominant
quadrature error exactly where the integrand blows up, so ball averages
of singular weights and product-kernel integrals converge at modest
resolutions.  The primitives of P are closed forms or fixed Gauss-Legendre
sums (``RadialProfile``); no adaptive quadrature runs.

A ball integral of P alone needs no cells: ``log_ball_integral`` returns
its logarithm exactly (primitives on the line, a full disk plus an
annulus in the plane), which is what the radial weights' power means and
the plane Riesz potentials of disks (``operators``) read.  A line integral
of a product of such profiles at several points, over finite or infinite
ranges, takes this module's Gauss-Jacobi and Gauss-Legendre rules on graded
panels (``line_integral.log_line_integral``).

Supported dimensions: 1 (intervals) and 2 (disks).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .records import record, replace

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
# the most cells one graded span of the line may take
MAX_GRADED_CELLS = 200_000


@record(frozen=True)
class QuadratureScheme:
    """Grid resolution and tolerance for the cells of T f in ``operators``,
    which an operator sweep's config sets (its ``quadrature`` block).

    ``resolution`` counts cells per ball radius (per axis in dimension 2).
    ``tol`` bounds the change that a convergence check (``apply_T``) accepts
    when the resolution doubles.  Singular points always take product
    integration on the fixed patch geometry above.  T a of a polynomial or
    indicator profile on the line, T of a disk's indicator under one
    similarity kernel factor, every weight and every atom read no scheme
    (a plane atom's norm at p0 != 2 takes cells at ``default_scheme(2)``).
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
    """Default grids: 2^9 cells per radius on the line, 2^6 per axis on disks
    (for the integrals that take cells; see ``QuadratureScheme``)."""
    if dimension == 1:
        return QuadratureScheme(resolution=512, tol=1e-6)
    if dimension == 2:
        return QuadratureScheme(resolution=64, tol=1e-3)
    raise ValueError("only dimensions 1 and 2 are supported")


# ---------------------------------------------------------------------------
# Radial profiles: the factor P(r) that is integrated exactly on patches.
# ---------------------------------------------------------------------------


_KNEE = math.exp(-1.0)

# 16-point Gauss-Legendre rule mapped to [0, 1], from the correctly rounded
# positive nodes and weights on [-1, 1] (no eigensolver call at import)
_GL16_HALF_X = np.array([0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
                         0.6178762444026438, 0.755404408355003, 0.8656312023878318,
                         0.9445750230732326, 0.9894009349916499])
_GL16_HALF_W = np.array([0.1894506104550685, 0.18260341504492358, 0.16915651939500254,
                         0.14959598881657674, 0.12462897125553388, 0.09515851168249279,
                         0.062253523938647894, 0.027152459411754096])
_GL16_X = 0.5 * (1.0 + np.concatenate([-_GL16_HALF_X[::-1], _GL16_HALF_X]))
_GL16_W = 0.5 * np.concatenate([_GL16_HALF_W[::-1], _GL16_HALF_W])
# cells per Gauss-Legendre batch: bounds the (cells x nodes) temporaries
_CHUNK = 4096


class RadialProfile:
    """P(r) = r**exponent * L(r)**s with L(r) = log(1/r) for r < 1/e and 1 above.

    ``primitive_vec(u, v, n)`` is the integral of P(r) r**(n-1) over each
    cell [u, v] of two arrays.  With g = exponent + n it splits at the knee
    1/e:

    * s == 0, or the part above the knee: (v**g - u**g) / g (log(v/u) at g == 0);
    * a cell below the knee with u > 0: 16-point Gauss-Legendre in
      t = log(1/r) (``_log_cells``, batched over cells, v**g factored out and
      the length taken by log1p, so thin cells subtract nothing); within
      1e-15 of 40-digit values;
    * a cell from 0: exp of ``log_primitive``, whose 16-point panels march
      in t = log r out to where the integrand has fallen by e**-46
      (``_log_quad``); within 1.3e-14 of 40-digit values down to v = 1e-12.
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

    def log_primitive(self, u: float, width: float, dim: int) -> float:
        """log of the integral of P(r) r**(dim-1) over [u, u + width], free of
        cancellation and finite where the integral itself under- or overflows
        (+inf if it diverges).

        Power parts are closed forms (``_log_power_integral``); a log part
        below the knee is ``_log_quad`` in t = log r.
        """
        g = self.exponent + dim
        if self.s == 0.0:
            return _log_power_integral(u, width, g)
        v = u + width
        parts = []
        if v > _KNEE:
            lo = max(u, _KNEE)
            parts.append(_log_power_integral(lo, width if lo == u else v - lo, g))
        if u < _KNEE:
            parts.append(_log_quad(g, self.s, math.log(u) if u > 0.0 else -math.inf,
                                   -1.0 if v >= _KNEE else math.log(v)))
        return _log_add(parts)

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
        # cells from 0: one or two per singular point and call
        for k in np.flatnonzero((u <= 0.0) & (top > 0.0)):
            out[k] += math.exp(self.log_primitive(0.0, float(top[k]), dim))
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
    subtract nothing.  Panels of t-length 1/2 keep 16 nodes exact to ~1e-16 at
    t = 1, where t**s bends most.
    """
    t_v = -np.log(v)
    length = np.log1p((v - u) / u)
    panels = np.maximum(np.ceil(2.0 * length), 1.0).astype(np.intp)
    cell = np.repeat(np.arange(u.size), panels)
    first = np.cumsum(panels) - panels
    h = (length / panels)[cell]
    tau = ((np.arange(cell.size) - first[cell]) * h)[:, None] + h[:, None] * _GL16_X
    f = np.exp(-g * tau) * (t_v[cell][:, None] + tau) ** s
    sums = np.bincount(cell, weights=h * (f @ _GL16_W), minlength=u.size)
    return v**g * sums


def radial_profile(e: float, s: float) -> RadialProfile:
    """The profile r**e L(r)**s as its most specific class (the benchmark
    tracer wraps LogPowerProfile and ProductProfile by name)."""
    if s == 0.0:
        return PowerProfile(e)
    return LogPowerProfile(s) if e == 0.0 else ProductProfile(e, s)


def combine_profiles(a, b):
    """Product of two profiles at one point: exponents and log powers add."""
    return radial_profile(a.exponent + b.exponent, a.s + b.s)


@record(frozen=True)
class RadialSingularity:
    """Point c and radial profile P such that integrand / P(|y-c|) stays bounded."""

    center: tuple
    profile: object

    def center_array(self) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.center, dtype=float))


def coincident(a, b, floor=1.0):
    """The one merge rule for singular points: a and b (arrays whose last axis
    holds the coordinates) coincide when their max-norm distance is at most
    _SING_MERGE_TOL times the larger max-norm, or times ``floor`` near the
    origin.  A rule that forms every distance exactly, down to one-ulp
    panels, passes floor=0 so that distinct points near the origin stay
    apart."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(floor, np.maximum(np.max(np.abs(a), axis=-1),
                                         np.max(np.abs(b), axis=-1)))
    return np.max(np.abs(a - b), axis=-1) <= _SING_MERGE_TOL * scale


def merge_coincident(active):
    """Combine (center, profile, radius) triples at (numerically) the same
    point, such as kernel preimages or weight factors that coincide: their
    exponents and log powers add."""
    merged = []
    for c, prof, rho in active:
        for k, (c2, prof2, rho2) in enumerate(merged):
            if coincident(c, c2):
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
# Ball integrals of one radial profile, carried as logarithms
# ---------------------------------------------------------------------------


# the cosine map x -> (1 - cos(pi x)) / 2 of the 16-point rule, for panels
# that end at a square-root endpoint
_COS_X = 0.5 * (1.0 - np.cos(np.pi * _GL16_X))
_COS_W = 0.5 * np.pi * np.sin(np.pi * _GL16_X) * _GL16_W
# a march stops where the integrand has fallen by e**-46 (~1e-20) from its
# maximum; a panel touching a square-root endpoint is at most _END_PANEL long
_LOG_DROP = 46.0
_END_PANEL = 0.5
_MAX_PANELS = 4096


def _log_add(terms) -> float:
    """log(sum(exp(terms))) for a list of floats (empty: -inf)."""
    top = max(terms, default=-math.inf)
    if not math.isfinite(top):
        return top
    return top + math.log(sum(math.exp(t - top) for t in terms))


def _log_power_integral(u: float, width: float, g: float) -> float:
    """log of the integral of r**(g-1) over [u, u + width], u >= 0.

    (v**g - u**g) / g is rewritten through log1p and expm1 so that thin
    intervals far from 0 and huge |g| lose nothing.
    """
    if u <= 0.0:
        return g * math.log(width) - math.log(g) if g > 0.0 else math.inf
    span = math.log1p(width / u)   # log(v / u)
    if g == 0.0:
        return math.log(span)
    if g > 0.0:
        return g * math.log(u + width) + math.log(-math.expm1(-g * span) / g)
    return g * math.log(u) + math.log(math.expm1(g * span) / g)


def _panel_length(g: float, s: float, t: float, reach: float) -> float:
    """Longest panel at t: exp(phi) changes by at most e**8 across it, its
    curvature scale and the pole of log(-t) (two panel lengths off) are
    resolved, and it is at most ``reach`` long."""
    if s == 0.0:
        ell = 8.0 / abs(g) if g else math.inf
    else:
        slope = abs(g + s / t)
        ell = min(8.0 / slope if slope else math.inf,
                  3.0 * abs(t) / math.sqrt(abs(s)), abs(t) / 3.0)
    return min(ell, reach)


def _log_quad(g: float, s: float, ta: float, tb: float, factor=None, shift=0.0) -> float:
    """log of the integral over t in [ta, tb] of exp(phi(t + shift)) * factor(t),
    phi(t) = g t + s log(-t), where tb + shift <= -1 whenever s != 0.

    ``factor`` (vectorized, bounded, or None for 1) may have square-root
    endpoints at the finite ends of the range.  Composite 16-point
    Gauss-Legendre panels march out from the maximum of phi, which is
    concave or convex, so unimodal on the range; each panel is at most
    ``_panel_length`` long and no longer than its distance to a finite end,
    and a panel touching a finite end takes the cosine map, which turns a
    square-root endpoint analytic.  The march stops where phi has fallen by
    _LOG_DROP, so ta may be -inf.  A ``shift`` keeps a narrow range far
    from 0 resolved to the last bit: g * shift is added once, at the end.
    """
    if ta == -math.inf and g <= 0.0:
        return math.inf

    def phi(t):
        return g * t + (s * math.log(-(t + shift)) if s else 0.0)

    if s == 0.0:
        tm = tb if g >= 0.0 else ta
    elif s > 0.0:
        tm = min(max(-s / g - shift, ta), tb) if g > 0.0 else ta
    else:
        tm = ta if ta > -math.inf and phi(ta) > phi(tb) else tb
    floor = phi(tm) - _LOG_DROP
    ends = () if factor is None else tuple(e for e in (ta, tb) if math.isfinite(e))
    edges = []
    for end in (ta, tb):
        t, way = tm, (1.0 if end > tm else -1.0)
        while t != end and phi(t) > floor:
            # the factor's complex branch points sit at its finite ends and
            # pi above them: a panel is at most 2 long near an end and a third
            # of its distance to the ends farther out, so a march toward -inf
            # (a circle through the singular point) grows geometrically
            reach = math.inf
            if factor is not None:
                reach = max(2.0, min((abs(t - e) for e in ends), default=math.inf) / 3.0)
            ell = _panel_length(g, s, t + shift, reach)
            for e in ends:
                if e != t and (e - t) * way < 0.0:
                    ell = min(ell, abs(t - e))
            # the cosine map stretches the middle of its panel and squeezes
            # the factor's branch points toward the axis, so a panel touching
            # an end is shorter
            touch = min(0.25 * ell, _END_PANEL) if ends else ell
            if t in ends:
                ell = touch
            dist = abs(end - t)
            if touch >= dist:
                nxt = end
            else:
                nxt = t + way * min(ell, 0.5 * dist if end in ends else ell)
            edges.append((min(t, nxt), max(t, nxt)))
            t = nxt
            if len(edges) > _MAX_PANELS:
                raise RuntimeError("radial log quadrature needs too many panels")
    lo = np.array([a for a, _ in edges])
    hi = np.array([b for _, b in edges])
    mapped = np.array([a in ends or b in ends for a, b in edges])[:, None]
    t = lo[:, None] + (hi - lo)[:, None] * np.where(mapped, _COS_X, _GL16_X)
    with np.errstate(divide="ignore"):
        logf = (g * t + (s * np.log(-(t + shift)) if s else 0.0)
                + np.log(np.where(mapped, _COS_W, _GL16_W) * (hi - lo)[:, None]))
        if factor is not None:
            logf = logf + np.log(factor(t))
    top = float(np.max(logf))
    return top + math.log(float(np.sum(np.exp(logf - top)))) + g * shift


def log_ball_integral(profile: RadialProfile, offset, radius: float) -> float:
    """log of the integral of P(|y|) over the ball B(offset, radius).

    On the line it is one or two ``log_primitive`` calls.  In the plane, at
    distance d from the singular point, the disk splits into the full disk
    of radius rho - d around the point (2 pi times a primitive) and the
    annulus |rho - d| < r < rho + d, where the circle of radius r keeps the
    arc angle(r) = 2 arccos((r^2 + d^2 - rho^2) / (2 r d)) inside the disk;
    the annulus is ``_log_quad`` in u = log(r / (rho + d)), split at the
    knee.  One rule covers points inside, on and outside the circle, from
    the center out to 1e300 radii.
    """
    offset = np.atleast_1d(np.asarray(offset, dtype=float))
    rho = float(radius)
    if offset.size == 1:
        x = float(offset[0])
        if x - rho >= 0.0:
            return profile.log_primitive(x - rho, 2.0 * rho, 1)
        if x + rho <= 0.0:
            return profile.log_primitive(-x - rho, 2.0 * rho, 1)
        return _log_add([profile.log_primitive(0.0, rho - x, 1),
                         profile.log_primitive(0.0, rho + x, 1)])
    if offset.size != 2:
        raise ValueError("only dimensions 1 and 2 are supported")
    d = math.hypot(float(offset[0]), float(offset[1]))
    parts = []
    if d < rho:
        parts.append(math.log(2.0 * math.pi) + profile.log_primitive(0.0, rho - d, 2))
    if d > 0.0:
        parts.append(_log_annulus(profile, d, rho))
    return _log_add(parts)


def _log_annulus(profile: RadialProfile, d: float, rho: float) -> float:
    """log of the integral of P(r) r angle(r) over |rho - d| < r < rho + d.

    The variable is u = log(r / (rho + d)) in [log(|rho - d| / (rho + d)), 0]:
    a shift keeps an annulus that is thin next to its radius (a disk far
    from the singular point, or a point near the disk's center) resolved.
    """
    big = rho + d
    gap = d - rho
    lo, near = abs(gap), min(d, rho)

    def angle(u):
        r, w = big * np.exp(u), -big * np.expm1(u)
        # 2 arccos(z) = 4 atan2(sqrt(1 - z), sqrt(1 + z)), with 1 -+ z factored
        # into w (r - gap) and (r + gap)(r + rho + d), roots taken apart so
        # that no product overflows.  w = rho + d - r, from expm1, is exact at
        # the outer edge; the factor r - lo that vanishes at the inner edge
        # is formed from r or from w, whichever leaves the smaller rounding
        edge = np.sqrt(np.maximum(r - lo if lo < near else 2.0 * near - w, 0.0))
        inner, outer = np.sqrt(w), np.sqrt(r + big)
        if gap > 0.0:
            inner, outer = inner * edge, outer * np.sqrt(r + lo)
        elif gap < 0.0:
            inner, outer = inner * np.sqrt(r + lo), outer * edge
        # (on a circle through the singular point the common factor r
        # cancels, which keeps the arc right where r underflows to 0)
        return 4.0 * np.arctan2(inner, outer)

    if lo == 0.0:
        ua = -math.inf
    elif lo < 0.5 * big:
        ua = math.log(lo / big)
    else:
        ua = math.log1p(-2.0 * near / big)
    if ua == 0.0:
        # min(d, rho) / (rho + d) underflows: a point within 1e-308 radii of
        # the center, whose annulus is negligible next to the full disk
        return -math.inf
    shift = math.log(big)
    g = profile.exponent + 2.0
    if profile.s == 0.0:
        return _log_quad(g, 0.0, ua, 0.0, angle, shift)
    knee = -1.0 - shift
    parts = []
    if knee < 0.0:
        parts.append(_log_quad(g, 0.0, max(ua, knee), 0.0, angle, shift))
    if ua < knee:
        parts.append(_log_quad(g, profile.s, ua, min(0.0, knee), angle, shift))
    return _log_add(parts)


# ---------------------------------------------------------------------------
# Gauss-Jacobi rules
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def gauss_jacobi(n: int, alpha: float, beta: float):
    """n-point Gauss rule for the weight (1 - t)**alpha (1 + t)**beta on [-1, 1],
    alpha, beta > -1, as read-only arrays (nodes, log weights).

    The nodes are the eigenvalues of the Jacobi matrix of the monic three-term
    recurrence (Golub & Welsch, Math. Comp. 23, 1969), located all at once by
    Sturm-sequence bisection and polished by Newton steps on the recurrence;
    the weights are the Christoffel numbers mu0 / sum_k q_k(t)**2 (q_0 = 1,
    mu0 the weight's integral), in logarithms, so no Gamma function
    overflows.  Against 30-digit rules the nodes agree to 2e-16 and the
    weights to 2e-14 relative, down to alpha = -0.9999.
    """
    if not (alpha > -1.0 and beta > -1.0):
        raise ValueError("Gauss-Jacobi exponents must exceed -1")
    k = np.arange(n, dtype=float)
    s = 2.0 * k + alpha + beta
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = (beta * beta - alpha * alpha) / (s * (s + 2.0))
        off2 = (4.0 * k * (k + alpha) * (k + beta) * ((k + alpha) + beta)
                / (s * s * (s + 1.0) * (s - 1.0)))
    # k = 0 and k = 1 in closed form: the general forms are 0/0 when
    # alpha + beta is 0 or -1 (the zero-order kernel's (-1/2, -1/2))
    diag[0] = (beta - alpha) / (alpha + beta + 2.0)
    off2[0] = 0.0
    if n > 1:
        off2[1] = 4.0 * (1.0 + alpha) * (1.0 + beta) / ((2.0 + alpha + beta) ** 2
                                                        * (3.0 + alpha + beta))
    # bisection: the number of negative pivots of T - t is the number of nodes below t
    lo, hi = np.full(n, -1.0), np.full(n, 1.0)
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        q = diag[0] - mid
        count = (q < 0.0).astype(int)
        for i in range(1, n):
            q = diag[i] - mid - off2[i] / np.where(q == 0.0, 1e-300, q)
            count += q < 0.0
        below = count > k
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
    t = 0.5 * (lo + hi)
    for _ in range(4):
        p0, p1, d0, d1 = np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n)
        for i in range(n):
            p0, p1, d0, d1 = (p1, (t - diag[i]) * p1 - off2[i] * p0,
                              d1, p1 + (t - diag[i]) * d1 - off2[i] * d0)
        t = np.clip(t - p1 / d1, lo, hi)
    log_mu0 = ((alpha + beta + 1.0) * math.log(2.0) + math.lgamma(alpha + 1.0)
               + math.lgamma(beta + 1.0) - math.lgamma(alpha + beta + 2.0))
    off = np.sqrt(off2)
    q0, q1 = np.zeros(n), np.ones(n)
    total = q1 * q1
    for i in range(n - 1):
        q0, q1 = q1, ((t - diag[i]) * q1 - off[i] * q0) / off[i + 1]
        total += q1 * q1
    rule = (t, log_mu0 - np.log(total))
    for arr in rule:
        arr.flags.writeable = False
    return rule


# ---------------------------------------------------------------------------
# One-dimensional cells
# ---------------------------------------------------------------------------


def split_edges(edges: np.ndarray, points) -> np.ndarray:
    """``edges`` with every point strictly inside their span added as an
    edge, sorted and without repeats (as np.unique gives them, which imports
    numpy.ma)."""
    inside = [p for p in points if edges[0] < p < edges[-1]]
    if not inside:
        return edges
    out = np.sort(np.concatenate([edges, np.asarray(inside, dtype=float)]))
    return out[np.concatenate([[True], out[1:] != out[:-1]])]


def cell_weights(edges, singularities=()):
    """Midpoints and weights of the product-integration midpoint rule over
    the cells given by ``edges``: the rule of an integrand F is the sum of
    F(mids) * weights.

    Singular points within _PATCH_CELLS widest-cell widths of the edges are
    active (coincident ones merged), and each one inside the span becomes an
    edge, so that no cell contains one.  Each cell is owned by its nearest
    active point c, with profile P, and weighs the integral of P(|y - c|)
    over the cell divided by P(|mid - c|): the rule integrates P exactly
    against the remaining (bounded) factor frozen at the midpoint, so its
    accuracy is O(h^2) up to the singularity itself.  A cell whose midpoint
    rounds onto c (a sub-ulp sliver) takes its outer edge as its midpoint.
    A cell next to a point that is not integrable weighs +inf.  With no
    active point each cell weighs its width.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = float(edges[0]), float(edges[-1])
    reach = _PATCH_CELLS * float(np.max(np.diff(edges)))
    active = []
    for s in singularities:
        c = s.center_array()[:1]
        if lo - reach < c[0] < hi + reach:
            active.append((c, s.profile, 0.0))
    active = merge_coincident(active)
    centers = np.array([float(c[0]) for c, _, _ in active])
    edges = split_edges(edges, centers)
    left, right = edges[:-1], edges[1:]
    mids = 0.5 * (left + right)
    if not active:
        return mids, right - left
    owner = np.argmin(np.abs(mids[:, None] - centers[None, :]), axis=1)
    weights = np.empty(mids.size)
    for k, (c, (_, prof, _)) in enumerate(zip(centers, active)):
        sel = owner == k
        u, v = left[sel], right[sel]
        ahead = u >= c
        # a sub-ulp sliver whose midpoint rounds onto c takes its outer edge
        mid = np.where(mids[sel] == c, np.where(ahead, v, u), mids[sel])
        mids[sel] = mid
        weights[sel] = (prof.primitive_vec(np.maximum(np.where(ahead, u - c, c - v), 0.0),
                                           np.where(ahead, v - c, c - u), 1)
                        / prof.value(np.abs(mid - c)))
    return mids, weights


def integrate_cells_1d(fn, edges, singularities=()):
    """The product-integration midpoint rule (``cell_weights``) over the
    cells given by ``edges`` of ``fn``, which maps a 1-d array of points to
    values: the sum of fn(mids) * weights, or math.inf when a singular point
    is not integrable."""
    mids, weights = cell_weights(edges, singularities)
    if np.any(np.isinf(weights)):
        return math.inf
    return float(np.sum(fn(mids) * weights))


def _graded_offset(i, h0, block):
    """Graded edge i's offset: block j = i // block starts at h0 block
    (2^j - 1) in cells h0 2^j wide."""
    j = i // block
    return h0 * block * (2.0**j - 1.0) + i % block * (h0 * 2.0**j)


def graded_cells(dist: float, h0: float, block: int) -> int:
    """The cells ``graded_edges`` lays over a span ``dist`` long: the j blocks
    that the closed form puts below it, and the edges of block j below it."""
    j = int(math.log2(dist / (h0 * block) + 1.0))
    return j * block + int(np.searchsorted(
        _graded_offset(np.arange(j * block, j * block + block + 1), h0, block), dist))


def graded_edges(near, far, h0, block=64, max_cells=MAX_GRADED_CELLS):
    """Increasing edges from ``near`` to ``far`` of cells h0 wide at the near
    end, doubling every ``block`` cells and clipped to the span; ValueError
    past ``max_cells`` cells."""
    dist = abs(far - near)
    cells = graded_cells(dist, h0, block)
    if cells > max_cells:
        raise ValueError(f"a graded span of length {dist:.6g} needs more than {max_cells} cells")
    offs = np.minimum(_graded_offset(np.arange(cells + 1), h0, block), dist)
    return near + offs if far >= near else near - offs[::-1]


# ---------------------------------------------------------------------------
# Two-dimensional disks
# ---------------------------------------------------------------------------


def _quadrant_area(x, y, r: float) -> np.ndarray:
    """|{p in B(0, r) : p_0 <= x, p_1 <= y}|, broadcast: the integral of the
    clipped chord through F(u) = (u s + r^2 arctan2(u, s)) / 2, s = sqrt(r^2 - u^2)."""
    def f(u):
        s = np.sqrt((r - u) * (r + u))
        return 0.5 * (u * s + r * r * np.arctan2(u, s))

    h = np.minimum(np.abs(y), r)
    t = np.sqrt((r - h) * (r + h))
    u = np.clip(x, -t, t)
    below = f(u) + f(t) - h * (u + t)  # the part below -|y|, by reflection above |y|
    return np.where(y < 0.0, below, 2.0 * (f(np.clip(x, -r, r)) + f(r)) - below)


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
    active = merge_coincident(active)
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
        sp = pts[straddle][:, None, :] + offsets[None, :, :]
        ok = np.linalg.norm(sp - center, axis=2) <= radius
        for c, _, rho in active:
            ok &= np.linalg.norm(sp - c, axis=2) > rho
        # a cell across the circle that meets no patch carries its exact area
        # |cell & B| (edges about the centre: the outermost are +-radius), shared
        # by its inside points or, if none, taken by its point nearest the centre
        ring = ~near_patch[straddle]
        i, j = np.divmod(np.flatnonzero(straddle)[ring], ncell)
        edge = np.linspace(-radius, radius, ncell + 1)
        area = np.maximum(_quadrant_area(edge[i + 1], edge[j + 1], radius)
                          - _quadrant_area(edge[i], edge[j + 1], radius)
                          - _quadrant_area(edge[i + 1], edge[j], radius)
                          + _quadrant_area(edge[i], edge[j], radius), 0.0)
        count = np.sum(ok[ring], axis=1)
        weight = np.full(ok.shape, (h / _DISK_SUBSAMPLE) ** 2)
        weight[ring] = (area / np.maximum(count, 1))[:, None]
        lone = (count == 0) & (area > 0.0)
        nearest = center + np.column_stack([np.clip(0.0, edge[i], edge[i + 1]),
                                            np.clip(0.0, edge[j], edge[j + 1])])[lone]
        if np.any(ok) or np.any(lone):
            total += float(np.sum(fn(np.concatenate([sp[ok], nearest]))
                                  * np.concatenate([weight[ok], area[lone]])))

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
        wgt = prof.primitive_vec(shells[:-1], shells[1:], 2)
        if not np.all(np.isfinite(wgt)):
            return math.inf
        gsum = vals.sum(axis=1) / prof.value(rmid)
        total += float(np.sum(wgt * (2.0 * math.pi / _PATCH_SECTORS) * gsum))
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

