"""Product-kernel fractional integral operators and maximal functions.

The central object is the operator with kernel
prod_j |x - A_j y|^{-alpha_j}, where the positive exponents alpha_j sum to
n - alpha and the A_j are invertible matrices.  For a single identity
matrix this is the classical Riesz potential of order alpha.

On the line, T f of a polynomial (or indicator) profile takes one of two
rules that do not depend on the quadrature scheme.  Near points take the
line's panel stage (``panels``), one group per point: the support splits at
the preimages x / lambda_j inside it, each piece is halved and each half
graded geometrically toward its own end, and the panel at a preimage takes
the 16-point Gauss-Jacobi rule for its exponent, every other panel
Gauss-Legendre (Davis & Rabinowitz, Methods of Numerical Integration, 1984).
Against a 30-digit mpmath quadrature these values agree to 1e-13 relative
or better, one ulp from a support endpoint and where two preimages nearly
coincide.

Far points, whose preimages A_j^{-1} x all lie at least 3 radii from the
centre c of the support, take a multipole rule: with D_j = x - A_j c and
t = y - c, the kernel is prod_j |D_j|^{-alpha_j} times the power series
S(t) = prod_j (1 - A_j t / D_j)^{-alpha_j} (ratio at most 1/3), whose
coefficients to degree 40 come from J. C. P. Miller's recurrence (Knuth,
TAOCP vol. 2, 4.7) and meet the exact centred moments of the stored
polynomial as they are made.  Every alpha_j <= 1 on the line, so the
degree-k coefficient is at most C(k + m - 1, m - 1) 3^{-k}: the truncation
error is below 4.2e-20, 1.8e-18 or 3.9e-17 (m = 1, 2, 3) of
prod_j |D_j|^{-alpha_j} ||f||_1, and no digits are lost to the cancellation
that vanishing moments cause in a quadrature: against a 40-digit mpmath
quadrature these values agree to 3e-13 relative or better, from 3 radii
out to a theorem campaign's truncation.

Neither rule's costly part depends on the function: the series, the panels
and their log terms are those of the ball, the kernel and the points.
``apply_T_ball_1d`` builds them once for every polynomial or indicator on
one ball and applies them to each, so the functions of a campaign that
share a ball share one evaluation of T.

In the plane, the indicator of a disk under one kernel factor
|x - A y|^{-a} whose matrix is a similarity (A^T A = lambda^2 I) gives
|lambda|^{-a} times the integral of the radial profile r^{-a} over the disk
about the preimage A^{-1} x, which ``quadrature.log_ball_integral`` computes
exactly (2e-15 relative against 30-digit mpmath, at the centre, one ulp
either side of the circle and out to 40 radii).

Every other T f (tabulated and callable profiles, other disks) takes
midpoint cells over the support at a ``QuadratureScheme``, with the kernel's
radial singularities integrated exactly by `quadrature`'s product rules.

Maximal functions (Hardy-Littlewood and fractional) are
computed as maxima over finite, lattice-aligned candidate ball sets and are
therefore certified lower bounds of the true suprema; candidate lattices
refine under the policy's control.  The maximal function of the indicator
of an interval is also available in closed form (``indicator_maximal_1d``).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureDiverged
from .geometry import Ball, MatrixFamily, as_point, identity_family
from .quadrature import (PowerProfile, QuadratureScheme, RadialSingularity,
                         coincident, default_scheme, integrate_ball, lebesgue_ball,
                         log_ball_integral)
from .panels import line_halves, line_nodes, line_panels
from .records import field, record
from .weights import _exp

#: a point is far field when every preimage is this many radii from the centre
FAR_FIELD_RATIO = 3.0
#: degree at which the far-field series is truncated
FAR_FIELD_ORDER = 40


@record(frozen=True)
class ExponentProfile:
    """Kernel exponents: alpha in [0, n), positive alpha_j summing to n - alpha.

    A zero-order kernel (alpha = 0) needs at least two factors.
    """

    alpha: float
    alphas: tuple
    dimension: int

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        if not (0.0 <= self.alpha < self.dimension):
            raise ValueError("order alpha must lie in [0, dimension)")
        if any(a <= 0 for a in alphas):
            raise ValueError("all kernel exponents must be positive")
        if abs(sum(alphas) - (self.dimension - self.alpha)) > 1e-12:
            raise ValueError("kernel exponents must sum to dimension - alpha")
        if self.alpha == 0.0 and len(alphas) < 2:
            raise ValueError("a zero-order kernel needs at least two factors")
        object.__setattr__(self, "alphas", alphas)

    @property
    def m(self) -> int:
        return len(self.alphas)


def equal_split(alpha: float, m: int, dimension: int) -> ExponentProfile:
    return ExponentProfile(alpha, tuple((dimension - alpha) / m for _ in range(m)),
                           dimension)


# ---------------------------------------------------------------------------
# Compactly supported test functions
# ---------------------------------------------------------------------------


class IndicatorProfile:
    """Profile constantly one on the support ball."""

    def eval(self, ball: Ball, pts: np.ndarray) -> np.ndarray:
        return np.ones(pts.shape[0])

    def to_dict(self):
        return {"kind": "indicator"}


class PolynomialProfile:
    """Polynomial in the centered, radius-scaled variable u = (y - x0) / r.

    Coefficients are keyed by multi-index; evaluation and exact ball moments
    stay well conditioned at every scale because u is dimensionless.
    """

    def __init__(self, coeffs: dict):
        self.coeffs = {tuple(int(i) for i in k): float(v) for k, v in coeffs.items()
                       if float(v) != 0.0}
        if not self.coeffs:
            self.coeffs = {}

    def degree(self) -> int:
        return max((sum(k) for k in self.coeffs), default=0)

    def eval(self, ball: Ball, pts: np.ndarray) -> np.ndarray:
        u = (np.atleast_2d(pts) - ball.center) / ball.radius
        out = np.zeros(u.shape[0])
        for k, c in self.coeffs.items():
            term = np.full(u.shape[0], c)
            for d, e in enumerate(k):
                if e:
                    term = term * u[:, d] ** e
            out += term
        return out

    def scaled(self, factor: float) -> "PolynomialProfile":
        return PolynomialProfile({k: c * factor for k, c in self.coeffs.items()})

    def plus(self, other: "PolynomialProfile") -> "PolynomialProfile":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return PolynomialProfile(out)

    def to_dict(self):
        return {"kind": "polynomial",
                "coeffs": [[list(k), v] for k, v in sorted(self.coeffs.items())]}


class CallableProfile:
    """Arbitrary vectorized profile; used for diagnostics, not serializable."""

    def __init__(self, fn):
        self.fn = fn

    def eval(self, ball: Ball, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.atleast_2d(pts)), dtype=float)


class GridProfile:
    """Piecewise-constant samples on the support ball's bounding box."""

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid profile values must be finite")

    def eval(self, ball: Ball, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        n = ball.dimension
        vals = self.values
        if n == 1:
            cells = vals.shape[0]
            h = 2.0 * ball.radius / cells
            idx = np.floor((pts[:, 0] - (ball.center[0] - ball.radius)) / h).astype(int)
            idx = np.clip(idx, 0, cells - 1)
            return vals[idx]
        cells = vals.shape[0]
        h = 2.0 * ball.radius / cells
        i = np.clip(np.floor((pts[:, 0] - (ball.center[0] - ball.radius)) / h).astype(int),
                    0, cells - 1)
        j = np.clip(np.floor((pts[:, 1] - (ball.center[1] - ball.radius)) / h).astype(int),
                    0, vals.shape[1] - 1)
        return vals[i, j]

    def to_dict(self):
        return {"kind": "grid", "shape": list(self.values.shape)}


@record(frozen=True, eq=False)
class SampledFunction:
    """A compactly supported function: profile restricted to a ball."""

    ball: Ball
    profile: object = field(default_factory=IndicatorProfile)

    @property
    def dimension(self) -> int:
        return self.ball.dimension

    def eval(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.zeros(pts.shape[0])
        inside = self.ball.contains(pts)
        if np.any(inside):
            out[inside] = self.profile.eval(self.ball, pts[inside])
        return out

    def scaled(self, factor: float) -> "SampledFunction":
        prof = self.profile
        if isinstance(prof, PolynomialProfile):
            return SampledFunction(self.ball, prof.scaled(factor))
        if isinstance(prof, GridProfile):
            return SampledFunction(self.ball, GridProfile(prof.values * factor))
        return SampledFunction(self.ball,
                               CallableProfile(lambda q, _b=self.ball, _p=prof, _f=factor:
                                               _f * _p.eval(_b, q)))


def indicator(center, radius: float) -> SampledFunction:
    return SampledFunction(Ball(center, radius), IndicatorProfile())


def sampled_from_csv(path, ball: Ball) -> SampledFunction:
    """Read (coordinates..., value) rows sampled on the ball's cell lattice."""
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    n = ball.dimension
    if data.shape[1] != n + 1:
        raise ValueError(f"expected {n + 1} columns (coordinates..., value)")
    count = data.shape[0]
    if n == 1:
        order = np.argsort(data[:, 0])
        return SampledFunction(ball, GridProfile(data[order, 1]))
    side = int(round(math.sqrt(count)))
    if side * side != count:
        raise ValueError("two-dimensional samples must form a square grid")
    vals = np.full((side, side), np.nan)
    h = 2.0 * ball.radius / side
    i = np.clip(np.floor((data[:, 0] - (ball.center[0] - ball.radius)) / h).astype(int), 0, side - 1)
    j = np.clip(np.floor((data[:, 1] - (ball.center[1] - ball.radius)) / h).astype(int), 0, side - 1)
    vals[i, j] = data[:, n]
    if np.any(np.isnan(vals)):
        raise ValueError("CSV rows do not cover the sample grid")
    return SampledFunction(ball, GridProfile(vals))


# ---------------------------------------------------------------------------
# Kernel and operator evaluation
# ---------------------------------------------------------------------------


def _kernel_rows(xs: np.ndarray, ys: np.ndarray, profile: ExponentProfile,
                 family: MatrixFamily) -> np.ndarray:
    """Kernel matrix K[i, c] = k(xs[i], ys[c]) with distances clipped away from 0."""
    out = np.ones((xs.shape[0], ys.shape[0]))
    for j, a in enumerate(profile.alphas):
        mapped = ys @ family.matrices[j].T
        diff = xs[:, None, :] - mapped[None, :, :]
        d = np.maximum(np.linalg.norm(diff, axis=2), 1e-300)
        out *= d ** (-a)
    return out


def _kernel_singularities(x: np.ndarray, profile: ExponentProfile,
                          family: MatrixFamily, ball: Ball):
    """Radial singularities in y of the kernel at fixed x: one per preimage
    A_j^{-1} x near the ball (the quadrature merges coincident ones)."""
    sings = []
    margin = ball.radius * 0.5 + 1.0
    for j, a in enumerate(profile.alphas):
        c = family.apply_inverse(j, x)
        if np.linalg.norm(c - ball.center) <= ball.radius + margin:
            sings.append(RadialSingularity(tuple(c), PowerProfile(-a)))
    return sings


def apply_T(f: SampledFunction, x, profile: ExponentProfile, family: MatrixFamily,
            scheme: QuadratureScheme | None = None, check_convergence: bool = True) -> float:
    """Quadrature value of the product-kernel integral at x.

    With ``check_convergence`` the value is recomputed at twice the
    resolution; a change above 8 * tol raises QuadratureDiverged and the
    refined value is returned otherwise.  (On the line a polynomial or
    indicator profile's value does not depend on the resolution.)
    """
    x = as_point(x, profile.dimension)
    if scheme is None:
        scheme = default_scheme(profile.dimension)
    if profile.dimension != family.dimension or f.dimension != profile.dimension:
        raise ValueError("function, exponents and matrices must share one dimension")

    def value(s):
        return float(apply_T_batch(f, x[None, :], profile, family, s)[0])

    v = value(scheme)
    if not check_convergence:
        return v
    v2 = value(scheme.refined(2))
    if abs(v2 - v) > 8.0 * scheme.tol:
        raise QuadratureDiverged(
            f"refinement moved the value by {abs(v2 - v):.3e} (> 8 * tol = {8 * scheme.tol:.1e})")
    return v2


def apply_T_batch(f: SampledFunction, xs, profile: ExponentProfile,
                  family: MatrixFamily, scheme: QuadratureScheme | None = None) -> np.ndarray:
    """Vectorized apply_T over a batch of evaluation points (no refinement check).

    On the line, a polynomial or indicator profile takes ``apply_T_ball_1d``
    (the multipole rule at far-field points, the panel stage at the
    others); in the plane, a disk's indicator under one similarity factor
    takes one exact radial ball integral.  None of these reads ``scheme``;
    every other case takes the cell quadrature.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ball = f.ball
    n = ball.dimension

    if n == 1 and isinstance(f.profile, (IndicatorProfile, PolynomialProfile)):
        return apply_T_ball_1d([f], xs[:, 0], profile, family)[0]

    lam = _similarity_scale(family) if n == 2 and profile.m == 1 else None
    if lam is not None and isinstance(f.profile, IndicatorProfile):
        # |x - A y| = |lambda| |A^{-1} x - y|: one radial integral over the
        # ball, +inf where it exceeds the float range (about 2 pi R on a disk
        # of radius R = 1e308)
        a = profile.alphas[0]
        kernel = PowerProfile(-a)
        offsets = ball.center - xs @ family.inverses[0].T
        with np.errstate(over="ignore"):
            return np.array([lam ** -a * _exp(log_ball_integral(kernel, o, ball.radius))
                             for o in offsets])
    out = np.empty(xs.shape[0])
    for i in range(xs.shape[0]):
        xi = xs[i]
        sings = _kernel_singularities(xi, profile, family, ball)

        def fn(pts):
            return _kernel_rows(xi[None, :], pts, profile, family)[0] * f.eval(pts)

        out[i] = integrate_ball(fn, ball, scheme, sings)
    return out


def apply_T_ball_1d(fs, xs, profile: ExponentProfile, family: MatrixFamily) -> np.ndarray:
    """T f at the points xs of the line for every function f in ``fs``.

    The functions are polynomials or indicators on one common ball.  Every
    costly part of T depends on the ball, the kernel and the points only:
    the far-field series and the near-field panels and their log
    terms are built once and applied to each function, so row i
    is T fs[i] with exactly the floating-point operations of
    ``apply_T_batch(fs[i], ...)``.  Returns an (len(fs), len(xs)) array.
    """
    xs = np.asarray(xs, dtype=float)
    ball = fs[0].ball
    for f in fs:
        if f.ball.radius != ball.radius or not np.array_equal(f.ball.center, ball.center):
            raise ValueError("the functions must share one ball")
    out = np.empty((len(fs), xs.size))
    far = _far_mask_1d(xs, family, ball)
    if np.any(far):
        out[:, far] = _far_field_1d(xs[far], [_unit_moments_1d(f.profile) for f in fs],
                                    profile, family, ball)
    if not np.all(far):
        out[:, ~far] = _near_field_1d(xs[~far], [f.profile for f in fs], ball, profile,
                                      family)
    return out


def _similarity_scale(family: MatrixFamily):
    """|lambda| when A_1 is lambda times a rotation or a reflection (its two
    singular values agree to 1e-12 relative); None otherwise.  The closed-form
    singular values neither overflow nor underflow where A^T A would."""
    hi, lo = family.singular_values[0]
    return hi if hi - lo <= 1e-12 * hi else None


# the far field contracts its series with the moments against u^k, k <= FAR_FIELD_ORDER
_FAR_ORDERS = tuple((k,) for k in range(FAR_FIELD_ORDER + 1))


def _unit_moments_1d(profile):
    """m_k = integral over [-1, 1] of u^k p(u), k <= FAR_FIELD_ORDER, for a
    polynomial or indicator profile p."""
    if isinstance(profile, IndicatorProfile):
        return _polynomial_moments((((0,), 1.0),), _FAR_ORDERS)
    return _polynomial_moments(tuple(sorted(profile.coeffs.items())), _FAR_ORDERS)


@lru_cache(maxsize=None)
def _unit_ball_moment(gamma: tuple):
    """The integral of u^gamma over the unit ball as an integer ratio: 0 for
    an odd exponent, else 2 / (g + 1) on the line and pi 2 (a - 1)!!
    (b - 1)!! / (a + b + 2)!! on the disk (Folland, Amer. Math. Monthly 108,
    2001), with pi the float's exact ratio."""
    if any(g % 2 for g in gamma):
        return 0, 1
    if len(gamma) == 1:
        return 2, gamma[0] + 1
    (pn, pd), (a, b) = math.pi.as_integer_ratio(), gamma
    return (2 * pn * math.prod(range(a - 1, 0, -2)) * math.prod(range(b - 1, 0, -2)),
            pd * math.prod(range(a + b + 2, 0, -2)))


@lru_cache(maxsize=256)
def _polynomial_moments(terms, betas) -> np.ndarray:
    """The integrals over the unit ball of u^beta sum c u^k, one per beta in
    ``betas``, from (k, c) pairs of multi-indices and floats, summed exactly
    and rounded once, so vanishing moments stay at their ~1e-17 residuals
    instead of picking up rounding noise: each float c is num / 2^e exactly
    and each monomial integral an integer ratio, so every moment is one
    integer numerator over the lcm of their denominators times 2^max(e), and
    Python's int / int is correctly rounded, as the float of the same
    Fraction is."""
    ratios = [(k, *c.as_integer_ratio()) for k, c in terms]
    den = max((d for _, _, d in ratios), default=1)      # a power of two
    nums = [(k, num * (den // d)) for k, num, d in ratios]
    out = np.empty(len(betas))
    for row, beta in enumerate(betas):
        parts = [(*_unit_ball_moment(tuple(map(sum, zip(k, beta)))), num) for k, num in nums]
        lcm = math.lcm(*(q for _, q, _ in parts))
        out[row] = sum(num * p * (lcm // q) for p, q, num in parts) / (lcm * den)
    out.flags.writeable = False
    return out


def _far_mask_1d(xs: np.ndarray, family: MatrixFamily, ball: Ball) -> np.ndarray:
    """True where every preimage x / lambda_j is FAR_FIELD_RATIO radii from the centre."""
    far = np.ones(xs.shape[0], dtype=bool)
    for mat in family.matrices:
        lam = float(mat[0, 0])
        far &= np.abs(xs - lam * ball.center[0]) >= FAR_FIELD_RATIO * ball.radius * abs(lam)
    return far


def _far_field_1d(xs: np.ndarray, moments: list, profile: ExponentProfile,
                  family: MatrixFamily, ball: Ball) -> np.ndarray:
    """Multipole values of T f at far-field points (see the module docstring),
    one row per moment vector in ``moments``.

    k(x, c + r u) = prod_j |D_j|^{-a_j} S(u), and S(u) = prod_j (1 - z_j u)^{-a_j},
    z_j = lambda_j r / D_j, solves P S' = Q S for P = prod_j (1 - z_j u) and
    Q = sum_j a_j z_j prod_{i != j} (1 - z_i u): (k + 1) S_{k+1} is the sum over
    1 <= i <= m of (q_{i-1} - (k + 1 - i) p_i) S_{k+1-i}.  All of it is
    elementwise, so a point's value does not depend on the other points.
    """
    c, r = float(ball.center[0]), float(ball.radius)
    scale = np.full(xs.shape[0], r)
    p, q = [np.ones_like(xs)], []
    for mat, a in zip(family.matrices, profile.alphas):
        lam = float(mat[0, 0])
        dist = xs - lam * c
        scale *= np.abs(dist) ** (-a)
        z = lam * r / dist
        # Q <- Q (1 - z u) + a z P, then P <- P (1 - z u), lowest coefficient first
        q = [hi - z * lo + a * z * pi for hi, lo, pi in zip(q + [0.0], [0.0] + q, p)]
        p = [hi - z * lo for hi, lo in zip(p + [0.0], [0.0] + p)]
    mom = np.stack(moments)[:, :, None]
    series = [p[0]]                             # S_{k-1}, ..., S_{k-m}, newest first
    acc = mom[:, 0] * p[0]
    for k in range(1, FAR_FIELD_ORDER + 1):
        s_k = sum((q[i] - (k - 1 - i) * p[i + 1]) * s for i, s in enumerate(series)) / k
        series = [s_k] + series[:len(q) - 1]
        acc += mom[:, k] * s_k
    return scale * acc


def _near_field_1d(xs: np.ndarray, profiles: list, ball: Ball, profile: ExponentProfile,
                   family: MatrixFamily) -> np.ndarray:
    """Panel values of T f at near-field points (see the module docstring),
    one row per polynomial or indicator profile on ``ball``.

    With s_j = x / lambda_j the kernel is C prod_j |s_j - y|^{-a_j},
    C = prod_j |lambda_j|^{-a_j}.  Each point is one group of the line's
    panel stage (``panels``), marked at the support's ends and the
    preimages inside it, with the preimages as factors.  Each profile's
    node values are multiplied by the stage's weights and summed per panel,
    then per point, in one order.  A merged exponent of -1 or below at a
    point of the support gives +inf.
    """
    lo = float(ball.center[0] - ball.radius)
    hi = float(ball.center[0] + ball.radius)
    lams = np.array([float(mat[0, 0]) for mat in family.matrices])
    # each row's preimages x / lambda_j in increasing order, with their exponents
    pre = xs[:, None] / lams
    order = np.argsort(pre, axis=1, kind="stable")
    pre = np.take_along_axis(pre, order, axis=1)
    exponent = -np.array(profile.alphas)[order]
    # merge coincident preimages: every member of a run sits at the run's first
    # preimage, and its last carries the run's summed exponent.  The stage forms
    # its distances exactly, so the merge is purely relative: +-x stay apart for
    # every x != 0
    summed = exponent.copy()
    for k in range(1, lams.size):
        same = coincident(pre[:, k, None], pre[:, k - 1, None], floor=0.0)
        pre[same, k] = pre[same, k - 1]
        summed[same, k] += summed[same, k - 1]
    out = np.where(np.any((pre >= lo) & (pre <= hi) & (summed <= -1.0), axis=1), math.inf, 0.0)
    live = np.flatnonzero(out == 0.0)
    marks = np.pad(np.clip(pre[live], lo, hi), ((0, 0), (1, 1)), constant_values=(lo, hi))
    group, mark, way, length, forms = line_halves(marks, pre[live], 0.0, exponent[live], 0.0)
    half, plo, phi = line_panels(length, forms)
    sums = np.empty((len(profiles), half.size))
    k = 0
    for own, nodes, terms in line_nodes(half, plo, phi, mark, way, forms):
        rule = np.exp(terms)
        for i, prof in enumerate(profiles):
            vals = prof.eval(ball, nodes.reshape(-1, 1)).reshape(nodes.shape)
            sums[i, k:k + own.size] = np.einsum("ij,ij->i", vals, rule)
        k += own.size
    scale = math.prod(abs(lam) ** -a for lam, a in zip(lams, profile.alphas))
    return np.stack([out + scale * np.bincount(live[group[half]], weights=row_sums,
                                               minlength=xs.size) for row_sums in sums])


def riesz_potential(f: SampledFunction, x, alpha: float,
                    scheme: QuadratureScheme | None = None,
                    check_convergence: bool = True) -> float:
    """Riesz potential of order alpha: the single-factor identity-matrix kernel."""
    n = f.dimension
    if not (0.0 < alpha < n):
        raise ValueError("Riesz potential order must lie in (0, dimension)")
    profile = ExponentProfile(alpha, (n - alpha,), n)
    return apply_T(f, x, profile, identity_family(n), scheme, check_convergence)


# ---------------------------------------------------------------------------
# Maximal functions over finite candidate ball sets
# ---------------------------------------------------------------------------


@record(frozen=True)
class MaximalPolicy:
    """Candidate lattice for maximal functions.

    Candidates are intervals with endpoints on a lattice covering the hull
    of (support of f, x) plus a margin (dimension 1), or lattice centers with
    dyadic radii (dimension 2).  Values are certified lower bounds of the
    true supremum; ``refine()`` doubles the lattice density.
    """

    cells_per_unit: int = 128
    margin: float = 2.0
    radii_log2: tuple = tuple(range(-4, 5))
    centers_per_unit: int = 4

    def refine(self, factor: int = 2) -> "MaximalPolicy":
        return MaximalPolicy(self.cells_per_unit * factor, self.margin,
                             self.radii_log2, self.centers_per_unit * factor)


def _lattice_1d(f: SampledFunction, x: float, policy: MaximalPolicy) -> np.ndarray:
    lo = min(f.ball.center[0] - f.ball.radius, x) - policy.margin
    hi = max(f.ball.center[0] + f.ball.radius, x) + policy.margin
    count = max(8, int(round((hi - lo) * policy.cells_per_unit)))
    pts = np.linspace(lo, hi, count + 1)
    anchors = np.array([x, f.ball.center[0] - f.ball.radius, f.ball.center[0] + f.ball.radius])
    pts = np.unique(np.concatenate([pts, anchors]))
    return pts


def _prefix_integral(f: SampledFunction, pts: np.ndarray, sub: int = 16) -> np.ndarray:
    """Cumulative integral of |f| on the lattice cells (midpoint subrule)."""
    lefts = pts[:-1]
    widths = np.diff(pts)
    offs = (np.arange(sub) + 0.5) / sub
    samples = lefts[:, None] + widths[:, None] * offs[None, :]
    vals = np.abs(f.eval(samples.reshape(-1, 1))).reshape(len(lefts), sub)
    cell = widths * vals.mean(axis=1)
    return np.concatenate([[0.0], np.cumsum(cell)])


def _maximal_1d(f: SampledFunction, x: float, policy: MaximalPolicy, beta: float):
    pts = _lattice_1d(f, x, policy)
    G = _prefix_integral(f, pts)
    ix = int(np.searchsorted(pts, x))
    ix = min(max(ix, 0), len(pts) - 1)
    if abs(pts[ix] - x) > 1e-12:
        ix = int(np.argmin(np.abs(pts - x)))
    lefts = pts[:ix + 1]
    rights = pts[ix:]
    gl = G[:ix + 1]
    gr = G[ix:]
    length = rights[None, :] - lefts[:, None]
    mass = gr[None, :] - gl[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(length > 0, length ** (beta - 1.0) * mass, -np.inf)
    k = int(np.argmax(vals))
    i, j = divmod(k, rights.size)
    return float(vals[i, j]), (float(lefts[i]), float(rights[j]))


def indicator_maximal_1d(ball: Ball, xs, beta: float) -> np.ndarray:
    """Exact (fractional) maximal function of the indicator of an interval B.

    For 0 <= beta < 1, an interval I through x covering the mass t of B
    gives t |I|^(beta-1), which grows with t at the least length
    dist(x, B) + t; so the hull of x and B is the best candidate and
    M_beta chi_B(x) = |B| (|B| + dist(x, B))^(beta-1).
    """
    if beta >= 1.0:
        raise ValueError("the closed form needs beta < 1")
    lo = float(ball.center[0] - ball.radius)
    hi = float(ball.center[0] + ball.radius)
    xs = np.asarray(xs, dtype=float)
    dist = np.maximum(np.maximum(lo - xs, xs - hi), 0.0)
    return (hi - lo) * ((hi - lo) + dist) ** (beta - 1.0)


def _maximal_2d(f: SampledFunction, x: np.ndarray, policy: MaximalPolicy, beta: float):
    ball = f.ball
    lo = np.minimum(ball.center - ball.radius, x) - policy.margin
    hi = np.maximum(ball.center + ball.radius, x) + policy.margin
    per = policy.centers_per_unit
    g0 = np.linspace(lo[0], hi[0], max(4, int((hi[0] - lo[0]) * per)) + 1)
    g1 = np.linspace(lo[1], hi[1], max(4, int((hi[1] - lo[1]) * per)) + 1)
    X, Y = np.meshgrid(g0, g1, indexing="ij")
    centers = np.column_stack([X.ravel(), Y.ravel()])
    centers = np.vstack([centers, x[None, :], ball.center[None, :]])

    res = 48
    edges0 = np.linspace(ball.center[0] - ball.radius, ball.center[0] + ball.radius, 2 * res + 1)
    edges1 = np.linspace(ball.center[1] - ball.radius, ball.center[1] + ball.radius, 2 * res + 1)
    m0 = 0.5 * (edges0[:-1] + edges0[1:])
    m1 = 0.5 * (edges1[:-1] + edges1[1:])
    MX, MY = np.meshgrid(m0, m1, indexing="ij")
    cells = np.column_stack([MX.ravel(), MY.ravel()])
    h2 = (ball.radius / res) ** 2
    fv = np.abs(f.eval(cells)) * h2

    half_diag = math.sqrt(h2 / 2.0)
    best = 0.0
    witness = None
    for k in policy.radii_log2:
        r = 2.0 ** k
        ok = np.linalg.norm(centers - x, axis=1) <= r
        if not np.any(ok):
            continue
        vol = lebesgue_ball(2, r)
        factor = vol ** (beta / 2.0 - 1.0)
        for c in centers[ok]:
            # only cells fully inside the candidate ball contribute, so the
            # value is a certified lower bound of the true supremum
            mass = float(np.sum(fv[np.linalg.norm(cells - c, axis=1) <= r - half_diag]))
            v = factor * mass
            if v > best:
                best = v
                witness = (tuple(float(t) for t in c), r)
    return best, witness


def hl_maximal(f: SampledFunction, x, policy: MaximalPolicy | None = None) -> float:
    """Uncentered Hardy-Littlewood maximal function over the candidate set."""
    v, _ = hl_maximal_witness(f, x, policy)
    return v


def hl_maximal_witness(f: SampledFunction, x, policy: MaximalPolicy | None = None):
    policy = policy or MaximalPolicy()
    x = as_point(x, f.dimension)
    if f.dimension == 1:
        return _maximal_1d(f, float(x[0]), policy, beta=0.0)
    return _maximal_2d(f, x, policy, beta=0.0)


def fractional_maximal(f: SampledFunction, x, beta: float,
                       policy: MaximalPolicy | None = None) -> float:
    """sup over candidate balls of |B|^{beta/n - 1} * integral of |f| over B."""
    v, _ = fractional_maximal_witness(f, x, beta, policy)
    return v


def fractional_maximal_witness(f: SampledFunction, x, beta: float,
                               policy: MaximalPolicy | None = None):
    n = f.dimension
    if not (0.0 < beta < n):
        raise ValueError("fractional order must lie in (0, dimension)")
    policy = policy or MaximalPolicy()
    x = as_point(x, n)
    if n == 1:
        return _maximal_1d(f, float(x[0]), policy, beta=beta)
    return _maximal_2d(f, x, policy, beta=beta)
