"""Weights and finite-family estimates of their Muckenhoupt-type constants.

A weight here is one of four analytic or tabulated positive functions on
R^n.  Class membership (A_1, A_p, A_{p,q}, reverse Holder) and the
critical indices and the constant C of w(A_j x) <= C w(x) are read in
closed form from the weight's exponents (``class_exclusion``,
``critical_indices``, ``check_matrix_compatibility``), at infinity too,
where no finite family of balls can see them.  A class that holds gets its
constant as a maximum over a finite family of balls.  Every essential
infimum and every power mean is exact, each by one rule per weight kind
and none on cells.  Estimates are therefore lower bounds for the true
constants, short of them only by the finite family; the point of the family
design (dyadic radii around the singular centers) is that power and log
weights attain their worst behavior exactly there.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NotIntegrable, OutOfGrid, SingularPoint
from .geometry import Ball, BallFamily, MatrixFamily, as_point, distances
from .quadrature import (RadialSingularity, _quadrant_area, combine_profiles, lebesgue_ball,
                         log_ball_integral, radial_profile)
from .records import asdict, record


# ---------------------------------------------------------------------------
# Weight variants
# ---------------------------------------------------------------------------


@record(frozen=True)
class PowerWeight:
    """w(x) = scale * |x|^exponent, singular (pole or zero) at the origin."""

    exponent: float
    dimension: int = 1
    scale: float = 1.0

    def __post_init__(self):
        if self.exponent <= -self.dimension:
            raise ValueError("power weight needs exponent > -dimension to be locally integrable")
        if self.scale <= 0:
            raise ValueError("weight scale must be positive")


@record(frozen=True)
class LogExampleWeight:
    """w(x) = (log(1/|x|))^power for |x| < 1/e and 1 otherwise (scaled)."""

    dimension: int = 1
    power: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("weight scale must be positive")


@record(frozen=True)
class ProductPowerWeight:
    """w(x) = scale * prod_i |x - c_i|^{a_i}; factors at one center multiply."""

    factors: tuple  # of (exponent, center) pairs
    dimension: int = 1
    scale: float = 1.0

    def __post_init__(self):
        factors = tuple((float(a), tuple(as_point(c, self.dimension)))
                        for a, c in self.factors)
        if not factors:
            raise ValueError("product weight needs at least one factor")
        if self.scale <= 0:
            raise ValueError("weight scale must be positive")
        object.__setattr__(self, "factors", factors)
        # factors at one center multiply, so their exponents add before the test
        for c, p in radial_factors(self)[1]:
            if not p.integrable(self.dimension):
                raise ValueError(f"the exponent at {c.tolist()} is {p.exponent:g}; it must "
                                 f"exceed -{self.dimension} for local integrability")


@record(frozen=True)
class RegularGrid:
    """Uniform cell grid on a box, addressed by cell midpoints."""

    lo: tuple
    hi: tuple
    shape: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        shape = tuple(int(v) for v in np.atleast_1d(self.shape))
        if len(lo) != len(hi) or len(lo) != len(shape):
            raise ValueError("grid lo/hi/shape must have matching lengths")
        if any(h <= l for l, h in zip(lo, hi)) or any(s < 1 for s in shape):
            raise ValueError("grid box must be nondegenerate")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shape", shape)

    @property
    def dimension(self) -> int:
        return len(self.lo)

    def cell_index(self, pts: np.ndarray) -> tuple:
        pts = np.atleast_2d(pts)
        idx = []
        for d in range(self.dimension):
            width = (self.hi[d] - self.lo[d]) / self.shape[d]
            i = np.floor((pts[:, d] - self.lo[d]) / width).astype(int)
            out = (pts[:, d] < self.lo[d] - 1e-12) | (pts[:, d] > self.hi[d] + 1e-12)
            if np.any(out):
                raise OutOfGrid("weight.grid", f"the point {pts[np.argmax(out)].tolist()} lies "
                                f"outside the grid box {list(self.lo)} .. {list(self.hi)}")
            idx.append(np.clip(i, 0, self.shape[d] - 1))
        return tuple(idx)


@record(frozen=True, eq=False)
class TabulatedWeight:
    """Piecewise-constant positive weight given on a regular grid."""

    grid: RegularGrid
    values: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(self.grid.shape)
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
            raise ValueError("tabulated weight values must be finite and strictly positive")
        if self.scale <= 0:
            raise ValueError("weight scale must be positive")
        object.__setattr__(self, "values", vals)

    @property
    def dimension(self) -> int:
        return self.grid.dimension


def tabulated_from_csv(path, grid: RegularGrid) -> TabulatedWeight:
    """Read (coordinates..., value) rows and bin them onto ``grid``."""
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    n = grid.dimension
    if data.shape[1] != n + 1:
        raise ValueError(f"expected {n + 1} columns (coordinates..., value)")
    vals = np.full(grid.shape, np.nan)
    idx = grid.cell_index(data[:, :n])
    vals[idx] = data[:, n]
    if np.any(np.isnan(vals)):
        raise ValueError("CSV rows do not cover every grid cell")
    return TabulatedWeight(grid, vals)


def weight_to_dict(w) -> dict:
    """Config-block encoding of a weight spec."""
    if isinstance(w, PowerWeight):
        return {"kind": "power", "exponent": w.exponent, "dimension": w.dimension,
                "scale": w.scale}
    if isinstance(w, LogExampleWeight):
        return {"kind": "log_example", "dimension": w.dimension, "power": w.power,
                "scale": w.scale}
    if isinstance(w, ProductPowerWeight):
        return {"kind": "product_power",
                "factors": [[a, list(c)] for a, c in w.factors],
                "dimension": w.dimension, "scale": w.scale}
    if isinstance(w, TabulatedWeight):
        return {"kind": "tabulated", "grid": {"lo": list(w.grid.lo), "hi": list(w.grid.hi),
                                              "shape": list(w.grid.shape)},
                "values": w.values.ravel().tolist(), "scale": w.scale}
    raise TypeError(f"unsupported weight {type(w).__name__}")


def radial_factors(w):
    """w as (scale, [(center, profile)]) with w(x) = scale * prod P(|x - center|)
    over the factors whose profile P is not constant; None for a tabulated w.

    This is the one place that tells the analytic weight kinds apart: a
    power is r**a, the log example log(1/r)**power below the knee, and a
    product weight one power per center.  Factors at equal centers merge, so
    their exponents add; distinct centers stay apart however close.
    """
    n = w.dimension
    if isinstance(w, PowerWeight):
        raw = [((0.0,) * n, w.exponent, 0.0)]
    elif isinstance(w, LogExampleWeight):
        raw = [((0.0,) * n, 0.0, w.power)]
    elif isinstance(w, ProductPowerWeight):
        raw = [(c, a, 0.0) for a, c in w.factors]
    else:
        return None
    merged = {}
    for c, e, s in raw:
        merged[c] = combine_profiles(merged.get(c, radial_profile(0.0, 0.0)), radial_profile(e, s))
    return w.scale, [(np.array(c), p) for c, p in merged.items()
                     if p.exponent != 0.0 or p.s != 0.0]


def _profile_power(profile, t: float):
    """P**t as a profile."""
    return radial_profile(profile.exponent * t, profile.s * t)


def eval_weight_batch(w, pts, extended: bool = False) -> np.ndarray:
    """Vectorized weight evaluation on points of shape (N, n).

    With ``extended=False`` an exact hit on a pole/zero raises SingularPoint;
    with ``extended=True`` the limit value (0 at a zero, +inf at a pole) is
    returned instead, which is what essential infima want.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[1] != w.dimension:
        raise ValueError(f"points must have shape (N, {w.dimension})")
    radial = radial_factors(w)
    if radial is None:
        return w.scale * w.values[w.grid.cell_index(pts)]
    scale, factors = radial
    out = np.full(pts.shape[0], float(scale))
    for c, prof in factors:
        r = distances(pts, c)
        hit = r == 0.0
        if not np.any(hit):
            out = out * prof.value(r)
            continue
        if not extended:
            raise SingularPoint(f"weight evaluated at its singular point {c.tolist()}")
        vals = prof.value(np.where(hit, 1.0, r))
        # r**e L(r)**s tends to 0 (a zero) or +inf (a pole) at the center
        pole = prof.exponent < 0.0 or (prof.exponent == 0.0 and prof.s > 0.0)
        vals[hit] = math.inf if pole else 0.0
        out = out * vals
    return out


def eval_weight(w, x) -> float:
    """Evaluate a weight at a single point (rejecting singular points)."""
    return float(eval_weight_batch(w, as_point(x, w.dimension)[None, :])[0])


def weight_power(w, t: float):
    """The weight w**t as a weight spec of the same kind.  Raises ConfigError
    at ``weight.scale`` when scale**t is not a positive finite float."""
    t = float(t)
    try:
        scale = w.scale**t
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise ConfigError("weight.scale", f"the scale of w^{t:g} is {w.scale:g}^{t:g}, "
                          "which is not a positive finite float")
    if isinstance(w, PowerWeight):
        return PowerWeight(w.exponent * t, w.dimension, scale)
    if isinstance(w, LogExampleWeight):
        return LogExampleWeight(w.dimension, w.power * t, scale)
    if isinstance(w, ProductPowerWeight):
        return ProductPowerWeight(tuple((a * t, c) for a, c in w.factors), w.dimension, scale)
    if isinstance(w, TabulatedWeight):
        return TabulatedWeight(w.grid, w.values**t, scale)
    raise TypeError(f"unsupported weight {type(w).__name__}")


def weight_singularities(w, s: float = 1.0):
    """Radial singularities of x -> w(x)**s for the quadrature engine.

    Powers with exponent >= 1 are C^1 at their center and need no patch;
    only poles and nonsmooth zeros (exponent below 1) are registered.
    """
    radial = radial_factors(w)
    sings = []
    for c, prof in radial[1] if radial else ():
        p = _profile_power(prof, s)
        if p.s != 0.0 or (p.exponent != 0.0 and p.exponent < 1.0):
            sings.append(RadialSingularity(tuple(c), p))
    return sings


def _radial_form(w, s: float):
    """(center, P, log(scale**s)) when w**s = scale**s * P(|x - center|) for
    one radial profile P (at most one non-constant factor).  None for
    tabulated and multi-factor product weights.  Raises NotIntegrable when a
    factor of w**s is not locally integrable."""
    radial = radial_factors(w)
    if radial is None:
        return None
    scale, factors = radial
    powered = [(c, _profile_power(prof, s)) for c, prof in factors]
    for c, p in powered:
        if not p.integrable(w.dimension):
            raise NotIntegrable(f"w^{s:g} has the factor {p!r} at {c.tolist()}, which is not "
                                f"locally integrable in dimension {w.dimension}")
    if len(powered) > 1:
        return None
    center, p = powered[0] if powered else (np.zeros(w.dimension), radial_profile(0.0, 0.0))
    return center, p, s * math.log(scale)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log_integral(w, s: float, form, ball: Ball) -> float:
    """log of the integral of w**s over the ball, where ``form`` is
    ``_radial_form(w, s)``, exact for every weight.

    A radial w**s is integrated by ``log_ball_integral``, a tabulated one as
    the sum of |cell_j & B| v_j**s (``_grid_cells``), a product on the line
    by ``line_integral.log_line_integral`` and a product in the plane by
    ``plane_integral.log_disk_integral``.
    """
    if form is not None:
        center, profile, log_scale = form
        return log_scale + log_ball_integral(profile, ball.center - center, ball.radius)
    radial = radial_factors(w)
    if radial is None:
        measures, values = _grid_cells(w, ball)
        with np.errstate(divide="ignore"):  # a cell that the disk grazes may read 0
            return float(np.logaddexp.reduce(np.log(measures) + s * np.log(values)))
    if ball.dimension == 1:
        from .line_integral import log_line_integral  # only products compile it

        lo, hi = (float(ball.center[0] + t * ball.radius) for t in (-1.0, 1.0))
        factors = [(float(m[0]), _profile_power(prof, s)) for m, prof in radial[1]]
        return s * math.log(radial[0]) + log_line_integral(factors, lo, hi)[0]
    from .plane_integral import log_disk_integral  # only plane products compile it

    factors = [(m, s * prof.exponent) for m, prof in radial[1]]
    return s * math.log(radial[0]) + log_disk_integral(factors, ball.center, ball.radius)


def _grid_cells(w, ball: Ball) -> tuple:
    """(|cell_j & B|, v_j) over the cells of a tabulated w that meet the open
    ball, v_j scaled; OutOfGrid at ``weight.grid`` past the grid.  Along each
    axis |cell & B| differences the measure of B below a cell corner, taken
    from the ball's centre: the clipped end, in the plane ``_quadrant_area``."""
    r = ball.radius
    w.grid.cell_index(ball.center + r * np.array([[-1.0], [1.0]]))
    edges = [np.linspace(lo, hi, k + 1) - c
             for lo, hi, k, c in zip(w.grid.lo, w.grid.hi, w.grid.shape, ball.center)]
    measures = (np.clip(edges[0], -r, r) if ball.dimension == 1
                else _quadrant_area(edges[0][:, None], edges[1][None, :], r))
    for axis in range(ball.dimension):
        measures = np.diff(measures, axis=axis)
    # the distance from the centre to each cell
    gaps = np.ix_(*(np.maximum(np.maximum(e[:-1], -e[1:]), 0.0) for e in edges))
    meet = np.sqrt(sum(g * g for g in gaps)) < r
    return np.maximum(measures[meet], 0.0), w.scale * w.values[meet]


def weighted_measure(w, s: float, ball: Ball) -> float:
    """Integral of w(x)**s over the ball, exact for every weight
    (``_log_integral``).  It reads the same integral as ``power_mean``."""
    s = float(s)
    return _exp(_log_integral(w, s, _radial_form(w, s), ball))


def power_mean(w, s: float, ball: Ball, log: bool = False) -> float:
    """(average of w**s over the ball)**(1/s), or its logarithm with ``log``.

    The average is ``weighted_measure``'s integral over |B|, exact for every
    weight.  The integral is carried as a logarithm, so the mean neither
    under- nor overflows on small balls at extreme exponents (|x|^260, or
    reverse Holder exponents up to 2^10); the class estimators form their
    ratios from the logarithms.
    """
    s = float(s)
    if s == 0.0:
        raise ValueError("power mean needs a nonzero exponent")
    mean = _log_mean(w, s, _radial_form(w, s), ball)
    return mean if log else _exp(mean)


def _log_mean(w, s: float, form, ball: Ball) -> float:
    """log ``power_mean(w, s, ball)``, where ``form`` is ``_radial_form(w, s)``."""
    log_vol = math.log(lebesgue_ball(ball.dimension, ball.radius))
    return (_log_integral(w, s, form, ball) - log_vol) / s


def essential_infimum(w, ball: Ball) -> float:
    """Essential infimum of w over the ball, exact for every weight.  A
    radial weight scale * P(|x - c|) is monotone in r: the value at the
    point of the closed ball nearest to or farthest from c, with the limit
    at c itself (0 at a zero, +inf at a pole).  A tabulated weight reads its
    least cell value on the open ball, and a product (ValueError when an
    exponent is positive) its least value at ``_product_minimizers``."""
    return _essential_infimum(w, _radial_form(w, 1.0), ball)


def _essential_infimum(w, radial, ball: Ball) -> float:
    """``essential_infimum``, where ``radial`` is ``_radial_form(w, 1.0)``."""
    if radial is not None:
        d = ball.center - radial[0]
        dist = float(distances(ball.center, radial[0])[0])
        unit = d / dist if dist > 0.0 else np.eye(ball.dimension)[0]
        near = ball.center - ball.radius * unit if dist > ball.radius else radial[0]
        pts = np.array([near, ball.center + ball.radius * unit])
    elif isinstance(w, TabulatedWeight):
        return float(np.min(_grid_cells(w, ball)[1]))
    else:
        pts = _product_minimizers(radial_factors(w)[1], ball)
    return float(np.min(eval_weight_batch(w, pts, extended=True)))


def _product_minimizers(factors, ball: Ball) -> np.ndarray:
    """Points of the closed ball, shape (N, n), among which the product of
    ``factors`` [(c_i, |x - c_i|^{a_i})], every a_i < 0 (else ValueError), is
    least.  On the line its log is convex between the poles, so on each
    piece it is least at an end or at the one root of the increasing
    sum_i a_i / (x - c_i); bisection brackets either between adjacent floats.
    In the plane log w is superharmonic, so it is least on the boundary
    circle, poles inside or on it included (the minimum principle; Armitage
    and Gardiner, Classical Potential Theory, 2001): ``_circle_minimizers``."""
    es = [p.exponent for _, p in factors]
    if max(es) > 0.0:
        raise ValueError(f"a product's infimum needs every exponent negative: {es}")
    if ball.dimension != 1:
        return _circle_minimizers(factors, ball)
    cs = [float(c[0]) for c, _ in factors]
    lo, hi = (float(ball.center[0] + t * ball.radius) for t in (-1.0, 1.0))
    cuts = sorted({lo, hi, *(c for c in cs if lo < c < hi)})
    pts = [lo, hi]
    for a, b in zip(cuts, cuts[1:]):
        while a < (mid := 0.5 * a + 0.5 * b) < b:
            if sum(e / (mid - c) for c, e in zip(cs, es)) < 0.0:
                a = mid
            else:
                b = mid
        pts += [a, b]
    return np.array(pts)[:, None]


def _circle_minimizers(factors, ball: Ball) -> np.ndarray:
    """The points of the boundary circle at 256 k scan angles in [pi, 3 pi]
    (off 0, so that bisection ends) and at the ends of each - to + sign
    change of d/dtheta log w on the scan, bisected to adjacent floats:
    prod_i |x - c_i|^2 d/dtheta log w is a trigonometric polynomial of
    degree at most k (<= 2k roots)."""
    v = np.array([c for c, _ in factors]) - ball.center
    es = np.array([p.exponent for _, p in factors])

    def rising(theta):  # d/dtheta log w >= 0, a pole's angle included
        cos, sin = np.cos(theta)[:, None], np.sin(theta)[:, None]
        dx, dy = ball.radius * cos - v[:, 0], ball.radius * sin - v[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.sum(es * (v[:, 0] * sin - v[:, 1] * cos) / (dx * dx + dy * dy), axis=1)
        return ~(slope < 0.0)

    theta = math.pi + np.linspace(0.0, 2.0 * math.pi, 256 * len(factors) + 1)
    up = rising(theta)
    j = np.nonzero(~up[:-1] & up[1:])[0]
    a, b = theta[j], theta[j + 1]
    while np.any(move := (a < (mid := 0.5 * a + 0.5 * b)) & (mid < b)):
        up = rising(mid)
        a, b = np.where(move & ~up, mid, a), np.where(move & up, mid, b)
    theta = np.concatenate([theta, a, b])
    return ball.center + ball.radius * np.column_stack([np.cos(theta), np.sin(theta)])


# ---------------------------------------------------------------------------
# Class-constant estimates
# ---------------------------------------------------------------------------


@record
class WeightClassReport:
    """Finite-family estimate of one class constant; ``class_exclusion``
    gives the verdict."""

    label: str
    constant: float
    verdict: str  # "finite" | "diverging"
    worst_ball: Ball | None
    excluded_by: str | None = None
    family_size: int = 0

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "constant": self.constant,
            "verdict": self.verdict,
            "worst_ball": self.worst_ball.to_dict() if self.worst_ball else None,
            "excluded_by": self.excluded_by,
            "family_size": self.family_size,
        }


def _ratio(log_num: float, log_den: float) -> float:
    """num / den from their logarithms: +inf unless num < inf and 0 < den < inf."""
    if log_num == math.inf or not math.isfinite(log_den):
        return math.inf
    return _exp(log_num - log_den)


def _class_constant(label, w, a, b, family):
    """sup_B M_a(B) / M_b(B) over the family, where M_s is the power mean of
    order s (``power_mean``, as a logarithm) and M_{-inf} the essential
    infimum of w on B (``essential_infimum``); the orders are exact ratios
    (num, den), or None for -inf.  A class that ``class_exclusion`` rules
    out reads +inf and evaluates no ball; otherwise each ball is read once,
    exactly."""
    excluded = class_exclusion(w, a, b)
    if excluded is not None:
        return WeightClassReport(label, math.inf, "diverging", None, excluded, len(family))
    a, b = (-math.inf if t is None else t[0] / t[1] for t in (a, b))
    # w**s's radial form is one per order, whatever the ball
    forms = {s: _radial_form(w, 1.0 if s == -math.inf else s) for s in (a, b)}

    def log_mean(s, ball):
        if s == -math.inf:
            lo = _essential_infimum(w, forms[s], ball)
            return math.log(lo) if lo > 0.0 else -math.inf
        return _log_mean(w, s, forms[s], ball)

    ratios = [_ratio(log_mean(a, ball), log_mean(b, ball)) for ball in family]
    k = max(range(len(ratios)), key=ratios.__getitem__)
    verdict = "finite" if ratios[k] < math.inf else "diverging"
    return WeightClassReport(label, ratios[k], verdict, family.balls[k], None, len(family))


def estimate_A1_constant(w, family: BallFamily) -> WeightClassReport:
    """sup_B (average of w over B) / (essential infimum of w on B).

    Like every class estimator, it forms its per-ball ratio from the
    logarithms of ``power_mean`` (``_class_constant``)."""
    return _class_constant("A_1", w, (1, 1), None, family)


def estimate_Ap_constant(w, p: float, family: BallFamily) -> WeightClassReport:
    """sup_B (avg_B w) * (avg_B w^{-1/(p-1)})^{p-1} for p > 1."""
    p = float(p)
    if p <= 1.0:
        raise ValueError("estimate_Ap_constant needs p > 1 (use estimate_A1_constant)")
    num, den = p.as_integer_ratio()
    # (avg w^dual)^(p-1) equals power_mean(w, dual)^(-1), dual = -1/(p-1)
    return _class_constant(f"A_p(p={p:g})", w, (1, 1), (-den, num - den), family)


def estimate_Apq_constant(w, p: float, q: float, family: BallFamily) -> WeightClassReport:
    """Two-exponent constant for the fractional maximal inequality.

    For p > 1: sup_B (avg w^q)^{1/q} (avg w^{-p'})^{1/p'}; for p = 1 the dual
    average is replaced by the essential infimum of w on B.
    """
    p, q = float(p), float(q)
    if q < p or p < 1.0:
        raise ValueError("estimate_Apq_constant needs 1 <= p <= q")
    num, den = p.as_integer_ratio()
    # (avg w^{-p'})^{1/p'} equals power_mean(w, -p')^{-1}
    dual = (-num, num - den) if p > 1.0 else None
    return _class_constant(f"A_pq(p={p:g},q={q:g})", w, q.as_integer_ratio(), dual, family)


def estimate_RH_constant(w, s_exp: float, family: BallFamily) -> WeightClassReport:
    """Reverse Holder constant: sup_B (avg_B w^s)^{1/s} / (avg_B w)."""
    s_exp = float(s_exp)
    if s_exp <= 1.0:
        raise ValueError("reverse Holder exponent must exceed 1")
    return _class_constant(f"RH_s(s={s_exp:g})", w, s_exp.as_integer_ratio(), (1, 1), family)


# ---------------------------------------------------------------------------
# Critical indices and class membership, from the exponents
# ---------------------------------------------------------------------------

#: the largest finite A_q index reported; a weight in no A_q up to it reads
#: q_critical = inf
AP_CAP = 256.0


@record
class CriticalIndices:
    """q_w = inf{q >= 1 : w in A_q} and r_w = sup{r > 1 : w in RH_r}."""

    q_critical: float
    rh_critical: float

    def to_dict(self) -> dict:
        return asdict(self)

    def rh_conjugate(self) -> float:
        """r_w / (r_w - 1): 1 when r_w is infinite, +inf when r_w is 1."""
        r = self.rh_critical
        if math.isinf(r):
            return 1.0
        return r / (r - 1.0) if r > 1.0 else math.inf


def _ratio_up(num: int, den: int) -> float:
    """num / den (den > 0) rounded up to a float (+-inf past the float range)."""
    try:
        x = num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf
    xn, xd = x.as_integer_ratio()
    return x if xn * den >= num * xd else math.nextafter(x, math.inf)


def _exponents(w):
    """The merged factors of ``radial_factors`` with their exponents as
    integers over one denominator: (den, [(center, profile, num)]), with no
    factor for a tabulated w."""
    radial = radial_factors(w)
    factors = radial[1] if radial else []
    ratios = [p.exponent.as_integer_ratio() for _, p in factors]
    den = max((d for _, d in ratios), default=1)  # a power of two
    return den, [(c, p, num * (den // d)) for (c, p), (num, d) in zip(factors, ratios)]


def critical_indices(w, family=None) -> CriticalIndices:
    """The critical indices of w in closed form, from its exponents; no
    estimator runs, and ``family`` is accepted and not read.

    Tabulated weights are bounded above and below, and the log weight is
    A_1-like for every power: q_w = 1 and r_w = inf.  For power and product
    weights take the merged local exponents a_i of ``radial_factors`` and
    their sum S, the exponent at infinity.  |x - c|^a is in A_q exactly for
    -n < a < n (q - 1) (Garcia-Cuerva, Dissertationes Math. 162, 1979), so
    q_w = max(1, 1 + max a_i / n, 1 + S / n), and q_w = inf when S <= -n.
    w is in RH_s exactly when w^s is in A_infinity (Cruz-Uribe and
    Neugebauer, Trans. AMS 347, 1995), so r_w = min(-n / v) over the
    negative v among the a_i and S, inf when none is, and 1 (no RH_r with
    r > 1) when S <= -n.  The exponents are summed as integer ratios, q_w is
    rounded up and r_w down, so neither errs to the unsafe side of a degree
    or a p0 bound.  A q_w above ``AP_CAP`` reads inf.
    """
    n = w.dimension
    den, factors = _exponents(w)
    nums = [num for _, _, num in factors]
    total = sum(nums)
    q = math.inf if total <= -n * den else _ratio_up(n * den + max([0, total] + nums), n * den)
    low = min([0, total] + nums)
    r = math.inf if low == 0 else max(1.0, -_ratio_up(-n * den, -low))
    return CriticalIndices(q if q <= AP_CAP else math.inf, r)


def class_exclusion(w, a, b) -> str | None:
    """What excludes w from the class sup_B M_a(B) / M_b(B) < inf, or None.

    The orders are exact ratios (num, den), den > 0, or None for -inf
    (``_class_constant``).  At each merged factor P of ``radial_factors``,
    for each order t, P^t is locally integrable (t finite) and P does not
    vanish (t = -inf); at infinity w is |x|^S, S the sum of the exponents,
    and |x|^{S t} is locally integrable (S <= 0 when w vanishes nowhere).
    For |x|^a this is -n < a < n (p - 1) for A_p (Garcia-Cuerva,
    Dissertationes Math. 162, 1979); w is in A_pq when w^q is in A_{1+q/p'}
    (Muckenhoupt and Wheeden, Trans. AMS 192, 1974).  A tabulated weight has
    no factor.  The tests are exact on the integer ratios of the inputs, so
    a boundary reads excluded.
    """
    n = w.dimension
    den, factors = _exponents(w)
    total = sum(num for _, _, num in factors)
    places = [(c.tolist(), p, num) for c, p, num in factors]
    # the float sum names the power, and is inf rather than an OverflowError
    at_infinity = radial_profile(sum(p.exponent for _, p, _ in factors), 0.0)
    places.append(("infinity", at_infinity, total))
    for where, prof, num in places:
        for t in (a, b):
            if t is None:
                if where != "infinity" and (num > 0 or (num == 0 and prof.s < 0.0)):
                    return f"w vanishes at {where}"
            # e t + n > 0 with e = num / den and t = t[0] / t[1]
            elif num * t[0] + n * den * t[1] <= 0:
                tf = t[0] / t[1]
                if where == "infinity":
                    return (f"w has the factor {prof!r} at infinity, whose power {tf:g} is "
                            f"not locally integrable in dimension {n}")
                return (f"w^{tf:g} has the factor {_profile_power(prof, tf)!r} at {where}, "
                        f"which is not locally integrable in dimension {n}")
    return None


# ---------------------------------------------------------------------------
# Matrix compatibility, from the exponents
# ---------------------------------------------------------------------------


def check_matrix_compatibility(w, family: MatrixFamily):
    """(C, detail) for w(A_j x) <= C w(x), from the exponents and no weight
    value: ``detail`` is None when the ratio is bounded, else it names j, m
    and e(m).  Near m, w(A x) / w(x) behaves like |x - m|^{e(m)}, where e(m)
    sums the merged exponents a_i of ``radial_factors`` with A^{-1} c_i = m
    less those with c_i = m, in exact integers.  The marks are compared
    through A: A^{-1} c_i = c_j exactly when c_i = A c_j, which
    ``_exact_image`` forms in the integer ratios of the float inputs.  The e(m)
    sum to 0, so the ratio is bounded exactly when all vanish; then it is
    prod_i (|A u_i| / |u_i|)^{a_i}, u_i = x - A^{-1} c_i, and C_j takes
    sigma_max^a for a > 0 and sigma_min^a for a < 0: |lambda_j|^S on the
    line, exact in the plane for one centre or a similarity, else a bound.
    The log factor of ``log_example`` (at 0) peaks at (1 + log(1/sigma_min))^s
    for s > 0, (1 + log sigma_max)^{-s} for s < 0.  C is formed from
    logarithms (inf past the float range).  A tabulated weight, bounded
    above and below, reads the bound max(values) / min(values).
    """
    if radial_factors(w) is None:
        return float(np.max(w.values) / np.min(w.values)), None
    den, factors = _exponents(w)
    pos, neg = (sum(k for _, _, k in factors if k * sign > 0) / den for sign in (1, -1))
    log_power = sum(p.s for _, p, _ in factors)
    logs = []
    for j, (mat, inv, (s_max, s_min)) in enumerate(zip(family.matrices, family.inverses,
                                                        family.singular_values)):
        # each mark m with its image A m, exactly
        marks = ([(inv @ c, tuple(map(float.as_integer_ratio, c.tolist())), k)
                  for c, _, k in factors] + [(c, _exact_image(mat, c), -k) for c, _, k in factors])
        for point, image, _ in marks:
            e = sum(k for _, q, k in marks if q == image)
            if e < 0:
                m = f"{point[0]:g}" if w.dimension == 1 else point.tolist()
                return math.inf, f"w(A_{j} x)/w(x) grows like |x - m|^{e / den:g} at m = {m}"
        # the log factor's ratio peaks where |x| = 1/e (s > 0) or |A x| = 1/e (s < 0)
        knee = -math.log(s_min) if log_power > 0.0 else math.log(s_max)
        logs.append(pos * math.log(s_max) + neg * math.log(s_min)
                    + abs(log_power) * math.log1p(max(0.0, knee)))
    return _exp(max(logs)), None


def _exact_image(mat, c) -> tuple:
    """mat @ c exactly: per coordinate the reduced integer ratio of the sum
    of products of the float entries, whose denominators are powers of two."""
    out = []
    for row in mat:
        terms = [(p * q, r * t) for (p, r), (q, t) in
                 ((float(a).as_integer_ratio(), float(x).as_integer_ratio())
                  for a, x in zip(row, c))]
        den = max(d for _, d in terms)
        num = sum(n * (den // d) for n, d in terms)
        g = math.gcd(num, den)
        out.append((num // g, den // g))
    return tuple(out)
