"""The benchmark's workloads: seeded configs, CLI invocations and output checks.

Each workload is a list of child-process invocations of the public surface
(``python3 -m rieszkit.cli ...`` or the far-field probe) plus the checks
that decide whether their outputs are right.  Expected values come from
theory or closed forms, never from earlier outputs.  See NOTES.md for why
each workload was chosen.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import mpmath

ANCHOR_TOL = 1e-3          # the README's tolerance for closed-form anchors
Q_CRITICAL = 1.5           # inf{q : |x|^{1/2} in A_q}
Q_CRITICAL_TOL = 0.02
CAMPAIGN_ATOMS = 24        # 8 per radius: the per-radius maxima settle, so the
                           # drift verdict does not hinge on one unlucky atom
CAMPAIGN_LATTICE = {"inner_resolution": 64, "outer_resolution": 16}  # 1/4 default
GEN_ATOMS = 18             # twice the 3x3 zero-order lattice
SWEEP_POINTS_1D = 1201
SWEEP_POINTS_2D = 41
NEAR = 2.875               # sweep lattices reach this many radii from the centre,
                           # inside the 3 radii where the far field starts
PROBE_POINTS = 8           # far-field points per side of each probe atom
CELLS_PER_RADIUS_1D = 512  # the CLI's default 1-D quadrature resolution
OUTER_OCTAVES = 8          # campaign default: truncation at (scale+1) * 2^8

ZERO_ORDER = {"matrices": [[[1.0]], [[-1.0]]],
              "exponents": {"alpha": 0.0, "alphas": "equal-split"}}
RADII = [0.25, 1.0, 4.0]


@dataclass
class Invocation:
    name: str               # output directory inside the pass directory
    kind: str               # "cli" (python3 -m rieszkit.cli) or "probe"
    args: list              # "{pass}" is replaced by the pass directory


@dataclass
class Workload:
    name: str
    configs: list           # config files a user's set-up parses
    invocations: list
    outputs: list           # files that must be identical across passes
    checks: list            # (label, fn(pass_dir) -> bool)
    accuracy: object = None  # fn(pass_dir) -> {metric: value}, or None


def _write(cfg_dir: Path, name: str, cfg: dict) -> str:
    path = cfg_dir / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    return str(path)


def report(path: Path) -> dict:
    return json.loads(path.read_text())["report"]


def payload_bytes(path: Path) -> bytes:
    """A report's payload without its timestamp; other files byte for byte."""
    data = path.read_bytes()
    if path.suffix == ".json":
        doc = json.loads(data)
        if "timestamp" in doc:
            return json.dumps(doc["report"], sort_keys=True).encode()
    return data


def _all_audits_pass(rep: dict) -> bool:
    return bool(rep["hypotheses"]) and all(h["passed"] for h in rep["hypotheses"])


def _verify(name: str, cfg: str, out: str) -> Invocation:
    return Invocation(name, "cli", ["verify", "--config", cfg, "--jobs", "1",
                                    "--out", "{pass}/" + out])


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------


def campaign(seed: int, cfg_dir: Path) -> Workload:
    rng = random.Random(seed)
    lattice = {"centers": [[0.0]], "radii": RADII, "count": CAMPAIGN_ATOMS,
               **CAMPAIGN_LATTICE}
    thm1 = _write(cfg_dir, "thm1", {
        "version": 1, "dimension": 1, **ZERO_ORDER,
        "weight": {"kind": "power", "exponent": 0.5},
        "atom": {"p": 1.0, "p0": 2.0},
        "campaign": {**lattice, "seed": rng.getrandbits(32)},
        "checks": [{"check": "theorem-thm1"}]})
    ta = _write(cfg_dir, "ta", {
        "version": 1, "dimension": 1, "matrices": ZERO_ORDER["matrices"],
        "exponents": {"alpha": 0.5, "alphas": [0.25, 0.25]},
        "weight": {"kind": "power", "exponent": -0.125},
        "atom": {"p": 0.75, "p0": 1.5},
        "campaign": {**lattice, "seed": rng.getrandbits(32), "s": 0.75},
        "checks": [{"check": "theorem-ta"}]})
    # d = 0 is the degree the zero-order audit derives (q_critical 1.5,
    # p = 1); giving it keeps `atoms gen` from repeating that audit
    atoms = _write(cfg_dir, "atoms", {
        "version": 1, "dimension": 1,
        "weight": {"kind": "power", "exponent": 0.5},
        "atom": {"p": 1.0, "p0": 2.0, "d": 0},
        "campaign": {"centers": [[0.0], [1.0], [-2.0]], "radii": RADII,
                     "count": GEN_ATOMS, "seed": rng.getrandbits(32)}})
    invocations = [
        _verify("thm1", thm1, "thm1"),
        _verify("ta", ta, "ta"),
        Invocation("gen", "cli", ["atoms", "gen", "--config", atoms, "--jobs", "1",
                                  "--out", "{pass}/gen"]),
        Invocation("validate", "cli", ["atoms", "validate", "--config", atoms,
                                       "--jobs", "1",
                                       "--manifest", "{pass}/gen/atoms.jsonl",
                                       "--out", "{pass}/validate"]),
    ]

    def theorem(name, check_id):
        rep = lambda p: report(p / name / f"00-{check_id}.json")
        return [(f"{name} verdict pass", lambda p: rep(p)["verdict"] == "pass"),
                (f"{name} audits all passed", lambda p: _all_audits_pass(rep(p)))]

    def atoms_valid(p):
        rep = report(p / "validate" / "atoms-validate.json")
        return (rep["all_passed"] is True and rep["count"] == GEN_ATOMS
                and all(r["passed"] for r in rep["results"]))

    return Workload(
        "campaign", [thm1, ta, atoms], invocations,
        outputs=["thm1/00-theorem-thm1.json", "thm1/00-theorem-thm1-witnesses.csv",
                 "ta/00-theorem-ta.json", "ta/00-theorem-ta-witnesses.csv",
                 "gen/atoms.jsonl", "validate/atoms-validate.json"],
        checks=(theorem("thm1", "theorem-thm1") + theorem("ta", "theorem-ta")
                + [("atoms validate all passed", atoms_valid)]))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

# Fixed for every seed.  The family keeps the origin, where both weights
# are singular, at four dyadic scales (the minimum the config accepts) plus
# one unit ball away from it; the default 91-ball family costs ~40 s.
CLASSIFY_FAMILY = {"centers": [[0.0], [1.0]], "k_min": -3, "k_max": 0}


def classify(seed: int, cfg_dir: Path) -> Workload:
    del seed  # theory fixes the expected verdicts, so the inputs are fixed
    log = _write(cfg_dir, "weights-log", {
        "version": 1, "dimension": 1, "weight": {"kind": "log_example"},
        "classify": {"classes": [{"kind": "A1"}, {"kind": "Ap", "p": 2.0}],
                     "critical_indices": False, "family": CLASSIFY_FAMILY}})
    half = _write(cfg_dir, "weights-power-half", {
        "version": 1, "dimension": 1, "weight": {"kind": "power", "exponent": 0.5},
        "classify": {"classes": [{"kind": "A1"}, {"kind": "Ap", "p": 2.0},
                                 {"kind": "Ap", "p": 1.25}, {"kind": "RH", "s": 4.0}],
                     "critical_indices": True, "tol": 0.01,
                     "family": CLASSIFY_FAMILY}})
    invocations = [
        Invocation(name, "cli", ["weights", "classify", "--config", cfg, "--jobs", "1",
                                 "--out", "{pass}/" + name])
        for name, cfg in (("log", log), ("half", half))]

    def verdict(name, i, expected):
        def ok(p):
            return report(p / name / "weights-classify.json")["classes"][i]["verdict"] == expected
        return ok

    def indices(p):
        return report(p / "half" / "weights-classify.json")["critical_indices"]

    checks = [
        ("log A1 finite", verdict("log", 0, "finite")),
        ("log A2 finite", verdict("log", 1, "finite")),
        ("|x|^1/2 A1 diverging", verdict("half", 0, "diverging")),
        ("|x|^1/2 A2 finite", verdict("half", 1, "finite")),
        ("|x|^1/2 A_1.25 diverging", verdict("half", 2, "diverging")),
        ("|x|^1/2 RH_4 finite", verdict("half", 3, "finite")),
        ("|x|^1/2 q_critical = 1.5", lambda p: abs(indices(p)["q_critical"] - Q_CRITICAL)
         <= Q_CRITICAL_TOL),
        ("|x|^1/2 rh_critical = inf", lambda p: indices(p)["rh_critical"] == "inf"),
    ]
    return Workload("classify", [log, half], invocations,
                    outputs=["log/weights-classify.json", "half/weights-classify.json"],
                    checks=checks)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def riesz_indicator_1d(x, c, r, alpha):
    """Riesz potential of the indicator of [c - r, c + r]."""
    u = abs(x - c)
    if u <= r:
        return ((r + u) ** alpha + (r - u) ** alpha) / alpha
    return ((u + r) ** alpha - (u - r) ** alpha) / alpha


def two_reflection_indicator(x, a, b):
    """Integral of |x^2 - y^2|^{-1/2} over [a, b], 0 < a: the zero-order
    kernel with matrices (1, -1) applied to an indicator; log(b/a) at 0."""
    x = abs(x)
    if x == 0.0:
        return math.log(b / a)
    if x <= a:
        return math.acosh(b / x) - math.acosh(a / x)
    if x >= b:
        return math.asin(b / x) - math.asin(a / x)
    return math.pi / 2 - math.asin(a / x) + math.acosh(b / x)


def newtonian_disk(rho, radius):
    """Integral of 1/|x - y| over a disk, at in-plane distance rho from its
    centre (complete elliptic integrals, parameter m); 2 pi R at rho = 0."""
    if rho <= radius:
        return float(4 * radius * mpmath.ellipe((rho / radius) ** 2))
    m = (radius / rho) ** 2
    return float(4 * rho * (mpmath.ellipe(m) - (1 - m) * mpmath.ellipk(m)))


def dropped_sliver(x, lo, hi, preimages, kernel):
    """The part of T f(x), f the indicator of [lo, hi], that the program
    drops when a kernel singularity s lies inside the support within an
    eighth of a quadrature cell of an endpoint (a program defect, see
    NOTES.md): the bounded factor of the sub-cell between that endpoint and
    s is sampled at s -+ cell/8, outside the support, where f is 0.  None
    when no singularity lies there."""
    cell = (hi - lo) / (2 * CELLS_PER_RADIUS_1D)
    for s in preimages(x):
        for end in (lo, hi):
            if lo < s < hi and abs(s - end) < cell / 8:
                with mpmath.workdps(30):
                    return float(mpmath.quad(lambda y: kernel(x, y), sorted([end, s])))
    return None


def read_sweep(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [float(r[0]) for r in rows], [float(r[-1]) for r in rows]


def sweep(seed: int, cfg_dir: Path) -> Workload:
    rng = random.Random(seed)
    # 1-D Riesz potential (alpha = 1/2) of a seeded indicator
    c, r = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0)
    riesz = _write(cfg_dir, "sweep-riesz", {
        "version": 1, "dimension": 1, "weight": {"kind": "power", "exponent": 0.0},
        "matrices": [[[1.0]]], "exponents": {"alpha": 0.5, "alphas": [0.5]},
        "sweeps": [{"name": "riesz", "function": {"kind": "indicator", "center": [c],
                                                   "radius": r},
                    "x_min": c - NEAR * r, "x_max": c + NEAR * r,
                    "points": SWEEP_POINTS_1D}]})
    # zero-order, two reflections, indicator of [a, b]; every x has a
    # preimage +-x within NEAR radii of the support centre since a <= 1.75 rr
    rr = rng.uniform(0.25, 0.75)
    a = rng.uniform(0.25, 1.75 * rr)
    mid = a + rr
    t02 = _write(cfg_dir, "sweep-t02", {
        "version": 1, "dimension": 1, "weight": {"kind": "power", "exponent": 0.0},
        **ZERO_ORDER,
        "sweeps": [{"name": "t02", "function": {"kind": "indicator", "center": [mid],
                                                 "radius": rr},
                    "x_min": -(mid + NEAR * rr), "x_max": mid + NEAR * rr,
                    "points": SWEEP_POINTS_1D}]})
    # 2-D Riesz potential with alpha = 1 of a disk, along the x-axis
    dc, dr = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5)
    disk = _write(cfg_dir, "sweep-disk", {
        "version": 1, "dimension": 2, "weight": {"kind": "power", "exponent": 0.0},
        "matrices": [[[1.0, 0.0], [0.0, 1.0]]],
        "exponents": {"alpha": 1.0, "alphas": [1.0]},
        "sweeps": [{"name": "disk", "function": {"kind": "indicator",
                                                  "center": [dc, 0.0], "radius": dr},
                    "x_min": dc - NEAR * dr, "x_max": dc + NEAR * dr,
                    "points": SWEEP_POINTS_2D}]})
    maximal = _write(cfg_dir, "maximal", {
        "version": 1, "dimension": 1, "weight": {"kind": "power", "exponent": 0.5},
        "checks": [{"check": "maximal-inequality", "p": 2.0}]})
    balls = rng.sample([(cc, rad) for cc in (0.0, 1.0, -2.0) for rad in (0.25, 1.0)], 2)
    probe = cfg_dir / "probe.json"
    probe.write_text(json.dumps({
        "weight_exponent": 0.5, "p": 1.0, "p0": 2.0,
        "matrices": [1.0, -1.0], "alphas": [0.5, 0.5],
        "outer_octaves": OUTER_OCTAVES, "points": PROBE_POINTS,
        "atoms": [{"center": cc, "radius": rad, "d": d, "seed": rng.getrandbits(32)}
                  for cc, rad in balls for d in (0, 1)]}, indent=1) + "\n")

    invocations = [
        Invocation(name, "cli", ["operator", "sweep", "--config", cfg, "--jobs", "1",
                                 "--out", "{pass}/" + name])
        for name, cfg in (("riesz", riesz), ("t02", t02), ("disk", disk))]
    invocations += [_verify("maximal", maximal, "maximal"),
                    Invocation("probe", "probe", [str(probe), "{pass}/probe/values.json"])]

    anchors = {
        "riesz": lambda x: riesz_indicator_1d(x, c, r, 0.5),
        "t02": lambda x: two_reflection_indicator(x, mid - rr, mid + rr),
        "disk": lambda x: newtonian_disk(abs(x - dc), dr),
    }
    points = {"riesz": SWEEP_POINTS_1D, "t02": SWEEP_POINTS_1D, "disk": SWEEP_POINTS_2D}
    # 1-D sweeps: support, kernel singularities in y at fixed x, kernel
    slivers = {
        "riesz": (c - r, c + r, lambda x: [x], lambda x, y: abs(x - y) ** -0.5),
        "t02": (mid - rr, mid + rr, lambda x: [x, -x],
                lambda x, y: abs(x * x - y * y) ** -0.5),
    }

    def anchor_errors(p, name):
        """Relative errors against the closed form, split into the points
        clear of the endpoint-sliver defect and those it can hit.  A point
        of the second kind is right if it matches the closed form, or the
        closed form less the sliver the defect drops."""
        xs, vals = read_sweep(p / name / f"{name}.csv")
        if len(xs) != points[name]:
            return [math.inf], []
        clear, hit = [], []
        for x, v in zip(xs, vals):
            ref = anchors[name](x)
            err = abs(v - ref) / abs(ref)
            lost = dropped_sliver(x, *slivers[name]) if name in slivers else None
            if lost is None:
                clear.append(err)
            else:
                hit.append((err, min(err, abs(v + lost - ref) / abs(ref))))
        return clear, hit

    def anchor_ok(p, name):
        clear, hit = anchor_errors(p, name)
        return all(e <= ANCHOR_TOL for e in clear) and all(e <= ANCHOR_TOL for _, e in hit)

    def probe_ok(p):
        out = json.loads((p / "probe" / "values.json").read_text())
        vals = [v for atom in out["atoms"] for v in atom["values"]]
        return (len(vals) == 4 * 2 * PROBE_POINTS
                and all(math.isfinite(v) for v in vals))

    reference = {}

    def accuracy(p):
        out = json.loads((p / "probe" / "values.json").read_text())
        key = json.dumps(out, sort_keys=True)
        if key not in reference:
            reference[key] = farfield_rel_err(out)
        errors = [anchor_errors(p, n) for n in anchors]
        hit = [e for _, h in errors for e, _ in h]
        return {"anchor_rel_err": max(e for clear, _ in errors for e in clear),
                "endpoint_points": len(hit),
                "endpoint_rel_err": max(hit, default=0.0),
                "farfield_rel_err": reference[key]}

    maximal_rep = lambda p: report(p / "maximal" / "00-maximal-inequality.json")
    checks = [(f"{n} sweep within {ANCHOR_TOL:g} of its closed form",
               lambda p, n=n: anchor_ok(p, n)) for n in anchors]
    checks += [("maximal inequality pass", lambda p: maximal_rep(p)["verdict"] == "pass"),
               ("maximal audits all passed", lambda p: _all_audits_pass(maximal_rep(p))),
               ("far-field probe values finite", probe_ok)]
    return Workload(
        "sweep", [riesz, t02, disk, maximal], invocations,
        outputs=["riesz/riesz.csv", "t02/t02.csv", "disk/disk.csv",
                 "maximal/00-maximal-inequality.json", "probe/values.json"],
        checks=checks, accuracy=accuracy)


def farfield_rel_err(out: dict) -> float:
    """Largest relative error of the probe values against an mpmath quadrature
    of the same polynomial atoms (40 digits, so the cancellation left by the
    vanishing moments costs nothing)."""
    mats, alphas = out["matrices"], out["alphas"]
    worst = 0.0
    with mpmath.workdps(40):
        for atom in out["atoms"]:
            c, r = atom["center"], atom["radius"]
            coeffs = [(k[0], v) for k, v in atom["coeffs"]]

            def integrand(y, x):
                u = (y - c) / r
                poly = mpmath.fsum(v * u**k for k, v in coeffs)
                kern = mpmath.fprod(abs(x - m * y) ** (-al) for m, al in zip(mats, alphas))
                return poly * kern

            for x, v in zip(atom["x"], atom["values"]):
                ref = mpmath.quad(lambda y: integrand(y, mpmath.mpf(x)), [c - r, c, c + r])
                worst = max(worst, abs(v - float(ref)) / abs(float(ref)))
    return worst


WORKLOADS = {"campaign": campaign, "classify": classify, "sweep": sweep}
