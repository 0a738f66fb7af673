"""Balls, matrix families, and the expanded-ball / outer-region decomposition.

Given a ball B(x0, r) and invertible matrices A_1..A_m with norm bound
M = max_j ||A_j||, the plane splits into the expanded balls
B_i* = B(A_i x0, 2 M r) and the outer region, which is itself partitioned
by nearest transformed center.  This decomposition is the geometric
skeleton of every pointwise estimate in the verification harness.

Every matrix is 1x1 or 2x2, so its singular values, condition number and
inverse take closed forms here, and no command calls LAPACK.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RieszkitError
from .records import record

#: points (and campaign lines) must stay below sqrt(float max), where the
#: squared distances of the kernel overflow
MAX_EXTENT = math.sqrt(np.finfo(float).max)
#: largest condition number of an A_j, or of an A_i - A_j at order zero
CONDITION_CAP = 1e8


def as_point(x, dimension: int | None = None) -> np.ndarray:
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if dimension is not None and p.shape != (dimension,):
        raise ValueError(f"expected a point in R^{dimension}, got shape {p.shape}")
    return p


def distances(pts, c) -> np.ndarray:
    """|x - c| for each row x of ``pts`` (or for the one point ``pts``), as
    abs on the line and hypot in the plane: a root of a sum of squares would
    overflow beyond sqrt(float max) and underflow below its inverse."""
    d = np.atleast_2d(pts) - c
    return np.abs(d[:, 0]) if d.shape[1] == 1 else np.hypot(d[:, 0], d[:, 1])


@record(frozen=True, eq=False)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not math.isfinite(self.radius) or self.radius <= 0:
            raise ValueError("ball radius must be finite and positive")

    @property
    def dimension(self) -> int:
        return self.center.size

    def scaled(self, factor: float) -> "Ball":
        return Ball(self.center, self.radius * factor)

    def contains(self, pts) -> np.ndarray:
        return distances(np.asarray(pts, dtype=float), self.center) <= self.radius

    def to_dict(self) -> dict:
        return {"center": [float(c) for c in self.center], "radius": self.radius}


@record(frozen=True, eq=False)
class BallFamily:
    balls: tuple

    def __post_init__(self):
        balls = tuple(self.balls)
        if not balls:
            raise ValueError("ball family must be nonempty")
        radii = [b.radius for b in balls]
        if math.log2(max(radii) / min(radii)) < 3.0 - 1e-9:
            raise ValueError("ball family radii must span at least 4 dyadic scales")
        object.__setattr__(self, "balls", balls)

    def __iter__(self):
        return iter(self.balls)

    def __len__(self):
        return len(self.balls)


def dyadic_ball_family(centers, k_min: int = -8, k_max: int = 4) -> BallFamily:
    """Lattice of centers crossed with dyadic radii 2^k, k in [k_min, k_max]."""
    balls = []
    for c in centers:
        for k in range(k_min, k_max + 1):
            balls.append(Ball(c, 2.0**k))
    return BallFamily(tuple(balls))


def default_ball_family(dimension: int) -> BallFamily:
    """Radii 2^-8..2^4 around the usual singular centres: seven on the line
    (0, +-1/2, +-1, +-2), four in the plane."""
    if dimension == 1:
        centers = [[0.0], [0.5], [-0.5], [1.0], [-1.0], [2.0], [-2.0]]
    else:
        centers = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]
    return dyadic_ball_family(centers, -8, 4)


def _scaled(matrix):
    """(s, e, sigma_max / s, det / s^n) of a 1x1 or 2x2 matrix: s is its
    largest |entry| and e its entries over s, which lie in [-1, 1], so
    neither the hypot nor the determinant overflows or underflows."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] > 2:
        raise ValueError(f"expected a square matrix in dimensions 1 and 2, got shape {a.shape}")
    s = float(np.max(np.abs(a)))
    e = [float(v) / s if s else 0.0 for v in a.ravel()]
    if len(e) == 1:
        return s, e, abs(e[0]), e[0]
    p, q, r, t = e
    return s, e, 0.5 * (math.hypot(p + t, q - r) + math.hypot(p - t, q + r)), p * t - q * r


def singular_values(matrix) -> tuple:
    """(sigma_max, sigma_min) of a 1x1 or 2x2 matrix [[p, q], [r, t]]:
    (hypot(p + t, q - r) + hypot(p - t, q + r)) / 2 and |pt - qr| / sigma_max."""
    s, _, hi, det = _scaled(matrix)
    return (0.0, 0.0) if hi == 0.0 else (hi * s, abs(det) / hi * s)


def condition_number(matrix) -> float:
    """sigma_max / sigma_min of a 1x1 or 2x2 matrix, inf when it is singular."""
    _, _, hi, det = _scaled(matrix)
    return hi * hi / abs(det) if det != 0.0 else math.inf


def inverse(matrix) -> np.ndarray:
    """Inverse of an invertible 1x1 or 2x2 matrix: the adjugate over the
    determinant, both of the scaled entries (1 / a exactly on the line)."""
    s, e, _, det = _scaled(matrix)
    if len(e) == 1:
        return np.array([[1.0 / det / s]])
    p, q, r, t = e
    return np.array([[t / det / s, -q / det / s], [-r / det / s, p / det / s]])


def operator_norm(matrix) -> float:
    """Spectral norm (largest singular value) of a matrix in dimensions 1 and 2."""
    a = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return singular_values(a)[0]


@record(frozen=True, eq=False)
class MatrixFamily:
    """The matrices A_1..A_m (dimensions 1 and 2) with cached inverses,
    singular values and differences, all from the closed forms above.

    ``pairwise_invertible`` must be set when the family is used with a
    zero-order kernel (total kernel homogeneity -n), which requires every
    A_i - A_j to be invertible.
    """

    matrices: tuple
    pairwise_invertible: bool = False

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=float) for m in self.matrices)
        if not mats:
            raise ValueError("matrix family must be nonempty")
        n = mats[0].shape[0]
        inverses = []
        for j, a in enumerate(mats):
            if a.shape != (n, n):
                raise RieszkitError(f"matrix {j}: expected shape ({n}, {n}), got {a.shape}")
            cond = condition_number(a)
            if not math.isfinite(cond) or cond > CONDITION_CAP:
                raise RieszkitError(
                    f"matrix {j}: condition number {cond:.3e} exceeds cap {CONDITION_CAP:.1e}")
            inverses.append(inverse(a))
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "_inverses", tuple(inverses))
        object.__setattr__(self, "_singular", tuple(singular_values(a) for a in mats))
        singular = self.singular_differences() if self.pairwise_invertible else []
        if singular:
            i, j, cond = singular[0]
            raise RieszkitError(f"matrices {i},{j}: difference not invertible "
                                f"(condition number {cond:.3e})")

    def singular_differences(self) -> list:
        """(i, j, condition number) of each A_i - A_j beyond the condition cap."""
        out = []
        for i in range(self.m):
            for j in range(i + 1, self.m):
                cond = condition_number(self.matrices[i] - self.matrices[j])
                if not math.isfinite(cond) or cond > CONDITION_CAP:
                    out.append((i, j, cond))
        return out

    @property
    def m(self) -> int:
        return len(self.matrices)

    @property
    def dimension(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def inverses(self) -> tuple:
        return self._inverses

    @property
    def singular_values(self) -> tuple:
        """(sigma_max, sigma_min) of each A_j."""
        return self._singular

    @property
    def norm_bound(self) -> float:
        """M = max_j ||A_j|| in the spectral norm."""
        return max(hi for hi, _ in self._singular)

    def apply(self, j: int, x) -> np.ndarray:
        return self.matrices[j] @ as_point(x, self.dimension)

    def apply_inverse(self, j: int, x) -> np.ndarray:
        return self._inverses[j] @ as_point(x, self.dimension)

    def to_dict(self) -> dict:
        return {"matrices": [m.tolist() for m in self.matrices],
                "pairwise_invertible": self.pairwise_invertible}


def identity_family(dimension: int, m: int = 1) -> MatrixFamily:
    return MatrixFamily(tuple(np.eye(dimension) for _ in range(m)))


def scalar_family(values, pairwise_invertible: bool = False) -> MatrixFamily:
    """One-dimensional family given by nonzero scalars."""
    return MatrixFamily(tuple(np.array([[float(v)]]) for v in values),
                        pairwise_invertible=pairwise_invertible)


@record(frozen=True)
class RegionLabel:
    """Inside the i-th expanded ball or in the k-th outer region (0-based)."""

    kind: str  # "inside" | "outer"
    index: int


def expanded_balls(ball: Ball, family: MatrixFamily) -> list:
    """The balls B(A_i x0, 2 M r) for i = 1..m."""
    big_r = 2.0 * family.norm_bound * ball.radius
    return [Ball(family.apply(i, ball.center), big_r) for i in range(family.m)]


def classify(x, ball: Ball, family: MatrixFamily) -> RegionLabel:
    """Label one point by ``classify_batch``'s rule."""
    is_outer, idx = classify_batch(as_point(x, ball.dimension)[None, :], ball, family)
    return RegionLabel("outer" if is_outer[0] else "inside", int(idx[0]))


def classify_batch(pts, ball: Ball, family: MatrixFamily):
    """Label each row of ``pts``: (is_outer, index) arrays.  A point is inside
    the first expanded ball covering it (boundaries count as inside), else
    outer at its nearest transformed center (smallest index on ties)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    big_r = 2.0 * family.norm_bound * ball.radius
    dists = np.stack([distances(pts, family.apply(i, ball.center)) for i in range(family.m)],
                     axis=1)
    inside_any = dists <= big_r
    is_outer = ~np.any(inside_any, axis=1)
    idx = np.where(is_outer, np.argmin(dists, axis=1),
                   np.argmax(inside_any, axis=1))
    return is_outer, idx
