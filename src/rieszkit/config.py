"""Run configurations: a versioned JSON schema validated with field paths.

The Sobolev exponent q is never read from a config; it is always derived
from (p, alpha, n), which keeps configs internally consistent by
construction.  Every validation error names the offending field path so
configs can be fixed without reading the code.
"""

from __future__ import annotations

import json
import math
import os
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, OutOfGrid
from .geometry import (MAX_EXTENT, Ball, BallFamily, MatrixFamily, default_ball_family,
                       dyadic_ball_family)
from .quadrature import QuadratureScheme
from .records import field, record, replace
from .weights import (LogExampleWeight, PowerWeight, ProductPowerWeight,
                      RegularGrid, TabulatedWeight, tabulated_from_csv)

if TYPE_CHECKING:
    from .operators import ExponentProfile, SampledFunction
    from .atoms import CampaignSpec

SCHEMA_VERSION = 1
# work budget: a config asking for more atoms, sweep points, cells or octaves
# than this is refused (exit 4) instead of running for days or failing to
# allocate
MAX_COUNT = 10**6
# moment-degree budget: up to degree 16 all of 200 atoms per degree that `atoms gen` builds
# on the atom campaign's balls, and on balls with |c|/r = 1e3, pass `atoms validate`; at 17
# one fails, so a config asking for more (atom.d), or deriving it (atom.p), is refused
MAX_DEGREE = 16
# atom-exponent cap: up to p0 = 1e5 the atoms' norms read 30-digit mpmath to
# 2e-14; at 1e6 the Gauss-Jacobi rule at their zeros merges nodes (2e-8 off)
MAX_P0 = 1e5
# product-factor exponent cap: the line rule reads log of the integral of |x|^a
# over [-1, 1] within 7e-14 up to a = 1e5, 1.2e-4 off at 1e6, NaN from ~1e10
MAX_FACTOR_EXPONENT = 1e5
MAX_SWEEP_POINTS = 10**5
MAX_RESOLUTION = {1: 2**20, 2: 2**10}
MAX_CAMPAIGN_RESOLUTION = 2**16
MAX_OUTER_OCTAVES = 64

KNOWN_CHECKS = (
    "theorem-thm1", "theorem-ta", "pointwise-atom-bound", "rh-ball-inequality",
    "maximal-inequality",
)


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(path, message)


def _get(block: dict, key: str, path: str, required: bool = True, default=None):
    _expect(isinstance(block, dict), path, "expected an object")
    if key not in block:
        _expect(not required, f"{path}.{key}", "required field is missing")
        return default
    return block[key]


def _number(block, key, path, required=True, default=None):
    """A finite number; an absent optional field gives ``default``."""
    _get(block, key, path, required)
    if key not in block:
        return None if default is None else float(default)
    v = block[key]
    _expect(_is_number(v), f"{path}.{key}", f"expected a finite number, got {v!r}")
    return float(v)


def _integer(block, key, path, required=True, default=None):
    """An integer; an absent optional field gives ``default``."""
    _get(block, key, path, required)
    if key not in block:
        return default
    v = block[key]
    _expect(isinstance(v, int) and not isinstance(v, bool),
            f"{path}.{key}", f"expected an integer, got {type(v).__name__}")
    return int(v)


def _bounded(block, key, path, default, lo, hi):
    """An optional integer in [lo, hi] (``default``, which may be None, when
    absent)."""
    v = _integer(block, key, path, False, default)
    _expect(v is None or lo <= v <= hi, f"{path}.{key}", f"must lie in [{lo}, {hi}]")
    return v


def derived_degree(d: int, p: float) -> int:
    """``d``, the minimal moment degree that atom.p = ``p`` and the weight's
    critical index derive; past MAX_DEGREE the config is refused at atom.p."""
    _expect(d <= MAX_DEGREE, "atom.p",
            f"p = {p:g} derives moment degree {d}, above the budget {MAX_DEGREE}")
    return d


def _list(block, key, path, default):
    """An optional list field (``default`` when absent)."""
    v = _get(block, key, path, False, default)
    _expect(isinstance(v, list), f"{path}.{key}" if path != "(root)" else key,
            "expected a list")
    return v


def build_weight(block: dict, dimension: int, base_dir: str = ".", path: str = "weight"):
    """The weight of a config's weight block or of an atom manifest record
    (as ``weights.weight_to_dict`` writes it): the one weight-block parser."""
    _expect(isinstance(block, dict), path, "expected an object")
    _expect(block.get("dimension", dimension) == dimension, f"{path}.dimension",
            f"must match the dimension {dimension}")
    kind = _get(block, "kind", path)
    scale = _number(block, "scale", path, False, 1.0)
    _expect(scale > 0.0, f"{path}.scale", "must be positive")
    if kind == "power":
        a = _number(block, "exponent", path)
        _expect(a > -dimension, f"{path}.exponent",
                f"must exceed -{dimension} for local integrability")
        return PowerWeight(a, dimension, scale)
    if kind == "log_example":
        return LogExampleWeight(dimension, _number(block, "power", path, False, 1.0), scale)
    if kind == "product_power":
        raw = _get(block, "factors", path)
        _expect(isinstance(raw, list) and raw, f"{path}.factors",
                "expected a nonempty list of [exponent, center] pairs")
        factors = []
        for i, item in enumerate(raw):
            _expect(isinstance(item, list) and len(item) == 2, f"{path}.factors[{i}]",
                    "expected [exponent, center]")
            a, c = item
            _point(c, dimension, f"{path}.factors[{i}][1]")
            _expect(_is_number(a) and -dimension < a <= MAX_FACTOR_EXPONENT,
                    f"{path}.factors[{i}][0]",
                    f"must be a number above -{dimension} and at most {MAX_FACTOR_EXPONENT:g}")
            factors.append((float(a), tuple(float(v) for v in c)))
        try:
            return ProductPowerWeight(tuple(factors), dimension, scale)
        except ValueError as exc:
            raise ConfigError(f"{path}.factors", str(exc))
    if kind == "tabulated":
        gpath = f"{path}.grid"
        gb = _get(block, "grid", path)
        _expect(isinstance(gb, dict), gpath, "expected an object")
        lo = _point(_get(gb, "lo", gpath), dimension, f"{gpath}.lo")
        hi = _point(_get(gb, "hi", gpath), dimension, f"{gpath}.hi")
        _expect(all(h > l for l, h in zip(lo, hi)), f"{gpath}.hi",
                "must exceed grid.lo in every coordinate")
        shape = _get(gb, "shape", gpath)
        _expect(isinstance(shape, list) and len(shape) == dimension
                and all(isinstance(k, int) and not isinstance(k, bool) and k >= 1
                        for k in shape),
                f"{gpath}.shape", f"expected {dimension} positive integers")
        grid = RegularGrid(tuple(lo), tuple(hi), tuple(shape))
        csv = _get(block, "csv", path, required=False)
        if csv is not None:
            _expect(isinstance(csv, str), f"{path}.csv", "expected a path")
            full = csv if os.path.isabs(csv) else os.path.join(base_dir, csv)
            _expect(os.path.exists(full), f"{path}.csv", f"file not found: {full}")
            try:
                values = tabulated_from_csv(full, grid).values
            except (ValueError, OutOfGrid) as exc:
                raise ConfigError(f"{path}.csv", str(exc))
        else:
            values = _get(block, "values", path)
            count = math.prod(shape)
            _expect(isinstance(values, list) and len(values) == count
                    and all(_is_number(v) and v > 0.0 for v in values),
                    f"{path}.values", f"expected {count} finite positive numbers, row-major")
        return TabulatedWeight(grid, np.asarray(values, dtype=float), scale)
    raise ConfigError(f"{path}.kind", f"unknown weight kind {kind!r}")


def build_matrices(block, dimension: int, path: str = "matrices") -> MatrixFamily:
    # pairwise invertibility for the zero-order case is audited by the checks
    # (a violation is a failed hypothesis, not a malformed config)
    _expect(isinstance(block, list) and block, path,
            "expected a nonempty list of row-major matrices")
    mats = []
    for j, rows in enumerate(block):
        _expect(isinstance(rows, list) and len(rows) == dimension
                and all(isinstance(row, list) and len(row) == dimension
                        and all(_is_number(v) for v in row) for row in rows),
                f"{path}[{j}]", f"expected a {dimension}x{dimension} matrix of finite numbers")
        arr = np.asarray(rows, dtype=float)
        mats.append(arr)
    try:
        return MatrixFamily(tuple(mats))
    except Exception as exc:
        raise ConfigError(path, str(exc))


def build_exponents(block: dict, dimension: int, m: int, path: str = "exponents") -> ExponentProfile:
    from .operators import ExponentProfile, equal_split

    _expect(isinstance(block, dict), path, "expected an object")
    alpha = _number(block, "alpha", path)
    raw = _get(block, "alphas", path, required=False, default="equal-split")
    try:
        if raw == "equal-split":
            return equal_split(alpha, m, dimension)
        _expect(isinstance(raw, list), f"{path}.alphas",
                "expected 'equal-split' or a list of exponents")
        _expect(len(raw) == m and all(_is_number(v) for v in raw), f"{path}.alphas",
                f"expected {m} finite exponents to match the matrix family")
        return ExponentProfile(alpha, tuple(float(v) for v in raw), dimension)
    except ValueError as exc:
        raise ConfigError(path, str(exc))


def build_quadrature(block: dict | None, dimension: int, path: str = "quadrature") -> QuadratureScheme:
    from .quadrature import default_scheme

    if block is None:
        return default_scheme(dimension)
    _expect(isinstance(block, dict), path, "expected an object")
    # ``tol`` is accepted and not read: only the scalar ``operators.apply_T``,
    # which no command calls, reads it
    for key in block:
        _expect(key in ("resolution", "tol"), f"{path}.{key}",
                "unknown quadrature field; known: resolution, tol")
    base = default_scheme(dimension)
    return replace(base, resolution=_bounded(block, "resolution", path, base.resolution, 16,
                                             MAX_RESOLUTION[dimension]))


CLASS_KINDS = ("A1", "Ap", "Apq", "RH")


def validate_classify(block, path: str = "classify"):
    """Check the class list of a classify block."""
    _expect(isinstance(block, dict), path, "expected an object")
    classes = _get(block, "classes", path, False, [])
    _expect(isinstance(classes, list), f"{path}.classes", "expected a list of classes")
    for i, cls in enumerate(classes):
        path_i = f"{path}.classes[{i}]"
        _expect(isinstance(cls, dict), path_i, "expected an object with a 'kind' field")
        kind = _get(cls, "kind", path_i)
        _expect(kind in CLASS_KINDS, f"{path_i}.kind",
                f"unknown class kind {kind!r}; known: {', '.join(CLASS_KINDS)}")
        if kind == "Ap":
            _expect(_number(cls, "p", path_i) > 1.0, f"{path_i}.p",
                    "A_p needs p > 1 (use kind A1 for p = 1)")
        elif kind == "Apq":
            p = _number(cls, "p", path_i)
            _expect(p >= 1.0, f"{path_i}.p", "A_pq needs p >= 1")
            _expect(_number(cls, "q", path_i) >= p, f"{path_i}.q", "A_pq needs q >= p")
        elif kind == "RH":
            _expect(_number(cls, "s", path_i) > 1.0, f"{path_i}.s",
                    "the reverse Holder exponent must exceed 1")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _point(value, dimension: int, path: str):
    _expect(isinstance(value, list) and len(value) == dimension
            and all(_is_number(v) for v in value), path, f"expected a point in R^{dimension}")
    return value


def _ball_fields(block, dimension: int, path: str):
    """(center, radius) of a ball block: a point in R^n and a finite radius > 0."""
    _expect(isinstance(block, dict), path, "expected an object with center and radius")
    center = _point(_get(block, "center", path), dimension, f"{path}.center")
    radius = _number(block, "radius", path)
    _expect(math.isfinite(radius) and radius > 0.0, f"{path}.radius",
            "must be finite and positive")
    return center, radius


def _expect_within_extent(extent: float, path: str):
    """A ball's extent |c| + r must stay below MAX_EXTENT, where the squared
    distances of its points overflow."""
    _expect(extent < MAX_EXTENT, path,
            f"the ball's extent |c| + r must stay below {MAX_EXTENT:.3g}")


def validate_check(item: dict, dimension: int, path: str, weight,
                   exponents: ExponentProfile | None, campaign: CampaignSpec | None) -> dict:
    """Domain checks of the parameters a check reads, and of the config
    blocks it needs (``weight``, ``exponents`` with its matrices,
    ``campaign``), before anything runs.

    Returns the check's parameters with every default applied, ready for
    the runner (``cli._run_check``) to read as they are.
    """
    name = item["check"]
    out = {"check": name}
    if name == "maximal-inequality":
        _expect(dimension == 1, f"{path}.check",
                "maximal-inequality sweeps are implemented on the line")
        _expect(not isinstance(weight, TabulatedWeight), "weight.kind",
                "maximal-inequality integrates over the whole line, beyond a "
                "tabulated weight's grid")
        p = _number(item, "p", path, False, 2.0)
        # at p = 1 the maximal operators have only the weak-type bound
        _expect(1.0 < p < math.inf, f"{path}.p", "must be finite and exceed 1")
        alpha = _number(item, "alpha", path, False, None)
        if alpha is not None:
            _expect(0.0 <= alpha < 1.0, f"{path}.alpha", "must lie in [0, 1)")
            _expect(p * alpha < 1.0, f"{path}.p", f"must lie below 1/alpha = {1 / alpha:g}")
        balls = _get(item, "test_balls", path, False,
                     [{"center": [0.0], "radius": 1.0}, {"center": [0.0], "radius": 0.5},
                      {"center": [1.0], "radius": 2.0}])
        _expect(isinstance(balls, list) and balls, f"{path}.test_balls",
                "expected a nonempty list of balls")
        out.update(p=p, alpha=alpha, test_balls=[])
        for i, ball in enumerate(balls):
            (c,), r = _ball_fields(ball, dimension, f"{path}.test_balls[{i}]")
            _expect(c - r < c < c + r and (c + r) - (c - r) < math.inf,
                    f"{path}.test_balls[{i}].radius", "the ends c - r and c + r must differ "
                    "from the centre and lie a finite length apart")
            out["test_balls"].append(Ball([c], r))
    elif name == "rh-ball-inequality":
        alpha = _number(item, "alpha", path, False, 0.5)
        _expect(0.0 < alpha < dimension, f"{path}.alpha", f"must lie in (0, {dimension})")
        p = _number(item, "p", path, False, 1.0)
        _expect(0.0 < p < dimension / alpha, f"{path}.p",
                f"must lie in (0, n/alpha) = (0, {dimension / alpha:g})")
        # q/p = 1/(1 - alpha p/n) rounds to 1 once alpha p/n is below the
        # float resolution, and RH_{q/p} needs q/p > 1; the smaller of the two
        # factors alpha/n and p is the field named
        q = 1.0 / (1.0 / p - alpha / dimension)
        _expect(q / p > 1.0, f"{path}.alpha" if alpha / dimension <= p else f"{path}.p",
                f"alpha p/n = {alpha * p / dimension:g} is too small: q/p rounds to 1")
        out.update(p=p, alpha=alpha)
    elif name == "pointwise-atom-bound":
        center = _get(item, "center", path, False, [0.0] * dimension)
        _point(center, dimension, f"{path}.center")
        reach = math.hypot(*center)
        _expect_within_extent(reach, f"{path}.center")
        radii = _get(item, "radii", path, False, [0.25, 1.0, 4.0])
        _expect(isinstance(radii, list) and radii
                and all(_is_number(r) and r > 0.0 for r in radii),
                f"{path}.radii", "expected a nonempty list of positive radii")
        for j, r in enumerate(radii):
            _expect_within_extent(reach + r, f"{path}.radii[{j}]")
        seed = _integer(item, "seed", path, False, 0)
        _expect(seed >= 0, f"{path}.seed", "must be a nonnegative integer")
        out.update(center=center, radii=tuple(radii), seed=seed)
    if name in ("theorem-thm1", "theorem-ta", "pointwise-atom-bound"):
        _expect(exponents is not None and campaign is not None, f"{path}.check",
                f"{name} needs matrices, exponents and a campaign or atom block")
        _expect(dimension == 1, f"{path}.check", f"{name} is implemented on the line")
    if name in ("theorem-thm1", "theorem-ta"):
        _expect((exponents.alpha == 0.0) == (name == "theorem-thm1"), "exponents.alpha",
                "theorem-thm1 needs alpha = 0 and theorem-ta needs alpha > 0")
    return out


def build_ball_family(block: dict | None, dimension: int, path: str = "family") -> BallFamily:
    if block is None:
        return default_ball_family(dimension)
    _expect(isinstance(block, dict), path, "expected an object")
    centers = _get(block, "centers", path)
    _expect(isinstance(centers, list) and centers, f"{path}.centers",
            "expected a nonempty list of points")
    for i, c in enumerate(centers):
        _point(c, dimension, f"{path}.centers[{i}]")
    k_min = _integer(block, "k_min", path, False, -8)
    k_max = _integer(block, "k_max", path, False, 4)
    _expect(k_max - k_min >= 3, f"{path}.k_max",
            "radius range must span at least 4 dyadic scales")
    return dyadic_ball_family(centers, k_min, k_max)


def build_campaign(block: dict | None, atom_block: dict | None, dimension: int,
                   path: str = "campaign") -> CampaignSpec:
    from .atoms import CampaignSpec

    block = block or {}
    atom_block = atom_block or {}
    _expect(isinstance(block, dict), path, "expected an object")
    p = _number(atom_block, "p", "atom", False, 1.0)
    _expect(0.0 < p <= 1.0, "atom.p", "must lie in (0, 1]")
    p0 = _number(atom_block, "p0", "atom", False, 2.0)
    _expect(1.0 < p0 <= MAX_P0, "atom.p0", f"must exceed 1 and be at most {MAX_P0:g}")
    # every derived degree is at least floor(n (1/p - 1)) (q_critical >= 1)
    _expect(dimension * (1.0 / p - 1.0) < MAX_DEGREE + 1, "atom.p",
            f"derives a moment degree of at least n (1/p - 1) = "
            f"{dimension * (1.0 / p - 1.0):.3g}, above the budget {MAX_DEGREE}")
    d = _bounded(atom_block, "d", "atom", None, 0, MAX_DEGREE)
    centers = _list(block, "centers", path,
                    [[c] + [0.0] * (dimension - 1) for c in (0.0, 1.0, -2.0)])
    _expect(bool(centers), f"{path}.centers", "expected a nonempty list of points")
    for i, c in enumerate(centers):
        _point(c, dimension, f"{path}.centers[{i}]")
    radii = _list(block, "radii", path, [0.25, 1.0, 4.0])
    _expect(radii and all(_is_number(r) and r > 0.0 for r in radii), f"{path}.radii",
            "expected a nonempty list of positive radii")
    reach = [math.hypot(*c) for c in centers]
    for i, extent in enumerate(reach):
        _expect_within_extent(extent, f"{path}.centers[{i}]")
    for i, r in enumerate(radii):
        _expect_within_extent(max(reach) + r, f"{path}.radii[{i}]")
    seed = _integer(block, "seed", path, False, 0)
    _expect(seed >= 0, f"{path}.seed", "must be a nonnegative integer")
    return CampaignSpec(
        count=_bounded(block, "count", path, 50, 1, MAX_COUNT),
        seed=seed,
        centers=tuple(tuple(float(v) for v in c) for c in centers),
        radii=tuple(float(r) for r in radii),
        p=p, p0=p0, s=_number(block, "s", path, False, None), d=d,
        outer_octaves=_bounded(block, "outer_octaves", path, 8, 0, MAX_OUTER_OCTAVES),
        inner_resolution=_bounded(block, "inner_resolution", path, 256, 1,
                                  MAX_CAMPAIGN_RESOLUTION),
        outer_resolution=_bounded(block, "outer_resolution", path, 64, 1,
                                  MAX_CAMPAIGN_RESOLUTION))


def build_function(block: dict, dimension: int, base_dir: str, path: str) -> SampledFunction:
    from .operators import indicator, sampled_from_csv

    _expect(isinstance(block, dict), path, "expected an object")
    kind = _get(block, "kind", path, False, "indicator")
    center, radius = _ball_fields(block, dimension, path)
    if kind == "indicator":
        return indicator(center, radius)
    if kind == "csv":
        csv = _get(block, "csv", path)
        full = csv if os.path.isabs(csv) else os.path.join(base_dir, csv)
        _expect(os.path.exists(full), f"{path}.csv", f"file not found: {full}")
        return sampled_from_csv(full, Ball(center, radius))
    raise ConfigError(f"{path}.kind", f"unknown function kind {kind!r}")


@record
class RunConfig:
    """Validated run configuration (q always derived, never supplied)."""

    dimension: int
    weight: object
    quadrature: QuadratureScheme
    base_dir: str
    seed: int | None = None
    matrices: MatrixFamily | None = None
    exponents: ExponentProfile | None = None
    campaign: CampaignSpec | None = None
    checks: list = field(default_factory=list)
    sweeps: list = field(default_factory=list)
    classify_block: dict | None = None
    family: BallFamily | None = None
    output_dir: str = "out"


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("(file)", f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("(file)", f"invalid JSON: {exc}")
    return parse_config(raw, os.path.dirname(os.path.abspath(path)))


def parse_config(raw: dict, base_dir: str = ".") -> RunConfig:
    _expect(isinstance(raw, dict), "(root)", "config must be a JSON object")
    version = _integer(raw, "version", "(root)")
    _expect(version == SCHEMA_VERSION, "version",
            f"unsupported schema version {version} (expected {SCHEMA_VERSION})")
    n = _integer(raw, "dimension", "(root)")
    _expect(n in (1, 2), "dimension", "only dimensions 1 and 2 are supported")
    # the norm defining the expanded-ball radius is a visible choice; only the
    # spectral norm is implemented
    norm_choice = raw.get("matrix_norm", "spectral")
    _expect(norm_choice == "spectral", "matrix_norm",
            f"only the spectral norm is supported, got {norm_choice!r}")

    weight = build_weight(_get(raw, "weight", "(root)"), n, base_dir)
    scheme = build_quadrature(raw.get("quadrature"), n)

    exponents = None
    matrices = None
    if "matrices" in raw or "exponents" in raw:
        _expect("matrices" in raw and "exponents" in raw, "(root)",
                "matrices and exponents must be given together")
        matrices = build_matrices(raw["matrices"], n)
        exponents = build_exponents(raw["exponents"], n, matrices.m)

    campaign = None
    if "campaign" in raw or "atom" in raw:
        campaign = build_campaign(raw.get("campaign"), raw.get("atom"), n)

    checks = []
    for i, item in enumerate(_list(raw, "checks", "(root)", [])):
        _expect(isinstance(item, dict), f"checks[{i}]",
                "expected an object with a 'check' field")
        name = _get(item, "check", f"checks[{i}]")
        _expect(name in KNOWN_CHECKS, f"checks[{i}].check",
                f"unknown check {name!r}; known: {', '.join(KNOWN_CHECKS)}")
        checks.append(validate_check(item, n, f"checks[{i}]", weight, exponents, campaign))

    sweeps = []
    for i, item in enumerate(_list(raw, "sweeps", "(root)", [])):
        path_i = f"sweeps[{i}]"
        _expect(isinstance(item, dict), path_i, "expected an object")
        fn = build_function(_get(item, "function", path_i), n, base_dir,
                            f"{path_i}.function")
        name = _get(item, "name", path_i, False, f"sweep{i}")
        x_min = _number(item, "x_min", path_i)
        x_max = _number(item, "x_max", path_i)
        _expect(x_max > x_min, f"{path_i}.x_max", "must exceed x_min")
        points = _bounded(item, "points", path_i, 101, 2, MAX_SWEEP_POINTS)
        sweeps.append({"name": name, "function": fn, "x_min": x_min,
                       "x_max": x_max, "points": points})

    classify_block = raw.get("classify")
    if classify_block is not None:
        validate_classify(classify_block)

    out_block = raw.get("output", {})
    _expect(isinstance(out_block, dict), "output", "expected an object")
    _expect(isinstance(out_block.get("dir", "out"), str), "output.dir", "expected a path")

    seed = _integer(raw, "seed", "(root)", False, None)
    _expect(seed is None or seed >= 0, "seed", "must be a nonnegative integer")
    return RunConfig(
        dimension=n, weight=weight, quadrature=scheme, base_dir=base_dir,
        seed=seed,
        matrices=matrices, exponents=exponents, campaign=campaign,
        checks=checks, sweeps=sweeps,
        classify_block=classify_block,
        family=build_ball_family(None if classify_block is None
                                 else classify_block.get("family"), n),
        output_dir=out_block.get("dir", "out"))
