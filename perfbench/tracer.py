"""Spans around rieszkit's public functions, recorded from outside the program.

As a program, ``python3 tracer.py SPANS cli|probe ARGS...`` wraps the
functions listed by ``_targets``, runs the CLI or
the far-field probe with ARGS, and writes one JSON line per span to SPANS
when the child ends.  Spans live in memory until then.  A span row is
``[id, parent_id, name, start, end, counts]`` with ``parent_id`` 0 for a
root span; times are ``time.perf_counter`` seconds, a monotonic clock the
parent process shares.

As a module, ``layer_metrics`` turns the span files of one pass into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import time

_T_ENTER = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

FAR_RATIO = 3.0     # a point is far when every preimage is 3 radii from the centre


class Recorder:
    """In-memory span list with a parent stack (the children run one thread)."""

    def __init__(self):
        self.rows = []
        self.stack = [0]

    def span(self, name: str, start: float, end: float, parent: int = 0):
        self.rows.append([len(self.rows) + 1, parent, name, start, end, None])

    def wrap(self, name, fn, counts=None, when=None):
        """``fn`` inside a span; ``counts(*args)`` is a dict stored with it and
        ``when(*args)`` restricts the span to the calls it accepts."""
        rows, stack, clock = self.rows, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            row = [len(rows) + 1, stack[-1], name, 0.0, 0.0, None]
            rows.append(row)
            stack.append(row[0])
            row[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[4] = clock()
                stack.pop()
                if counts is not None:
                    row[5] = counts(*args, **kwargs)
        return traced

    def write(self, path: Path):
        with open(path, "w") as fh:
            for row in self.rows:
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# What is wrapped
# ---------------------------------------------------------------------------


def _cells_1d(fn, edges, *args, **kwargs):
    return {"cells": len(edges) - 1}


def _primitive_cells(profile, u, v, dim):
    return {"cells": int(u.size) if hasattr(u, "size") else len(u)}


def _apply_counts(f, xs, profile, family, scheme=None):
    """Points, far points and kernel evaluations of one apply_T_batch call."""
    import numpy as np
    from rieszkit.quadrature import default_scheme

    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    n = xs.shape[1]
    res = (scheme or default_scheme(n)).resolution
    ball = f.ball
    far = np.ones(xs.shape[0], dtype=bool)
    for inv in family.inverses:
        pre = xs @ np.asarray(inv).T
        far &= np.linalg.norm(pre - ball.center, axis=1) >= FAR_RATIO * ball.radius
    # support cells of the midpoint grid: 2 res on the line, (2 res)^2 on disks
    cells = (2 * res) ** n
    return {"points": int(xs.shape[0]), "far_points": int(far.sum()),
            "kernel_evals": int(xs.shape[0]) * cells}


def _targets():
    """(owner, attribute, span name, counts, when) for every wrapped callable."""
    from rieszkit import (atoms, cli, config, geometry, operators, quadrature, verify,
                          weights)

    targets = [
        (quadrature, "integrate_cells_1d", "quadrature.cells_1d", _cells_1d, None),
        (quadrature, "integrate_disk", "quadrature.disk", None, None),
        # the per-cell scipy.integrate.quad path of the radial profiles
        (quadrature.LogPowerProfile, "primitive_vec", "quadrature.scalar_primitive",
         _primitive_cells, lambda prof, *a: prof.s <= -1.0),
        (quadrature.ProductProfile, "primitive_vec", "quadrature.scalar_primitive",
         _primitive_cells, None),
        (operators, "apply_T_batch", "operators.apply_T_batch", _apply_counts, None),
        (weights, "power_mean", "weights.power_mean", None, None),
        (weights, "critical_indices", "weights.critical_indices", None, None),
        (atoms, "construct_atom", "atoms.construct_atom", None, None),
        (atoms, "validate_atom", "atoms.validate_atom", None, None),
        (verify, "run_theorem_campaign", "verify.run_theorem_campaign", None, None),
        (verify, "check_maximal_inequalities", "verify.maximal", None, None),
        (config, "load_config", "config.load_config", None, None),
        (cli, "main", "cli", None, None),
        (geometry.MatrixFamily, "apply", "geometry", None, None),
        (geometry.MatrixFamily, "apply_inverse", "geometry", None, None),
    ]
    for est in ("estimate_A1_constant", "estimate_Ap_constant", "estimate_Apq_constant",
                "estimate_RH_constant"):
        targets.append((weights, est, "weights.estimate", None, None))
    for attr in ("as_point", "dyadic_ball_family", "operator_norm", "identity_family",
                 "scalar_family", "expanded_balls", "classify", "classify_batch"):
        targets.append((geometry, attr, "geometry", None, None))
    return targets


def install(rec: Recorder):
    """Wrap every target in its defining module or class and wherever a
    rieszkit module imported it by name, so no call escapes its span."""
    wrapped = {}
    for owner, attr, name, counts, when in _targets():
        orig = getattr(owner, attr)
        new = rec.wrap(name, orig, counts, when)
        setattr(owner, attr, new)
        wrapped[id(orig)] = (orig, new)
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "rieszkit"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    for module in modules:
        for attr, value in vars(module).items():
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                raise RuntimeError(f"{module.__name__}.{attr} escaped the tracer")


def run_child(argv) -> int:
    spans_path, kind, *args = argv
    rec = Recorder()
    import rieszkit.cli  # noqa: F401  (loads every module before patching)
    rec.span("startup.import", _T_ENTER, time.perf_counter())
    install(rec)
    import probe

    target = rieszkit.cli.main if kind == "cli" else probe.main
    try:
        return target(args)
    finally:
        rec.write(Path(spans_path))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def read_spans(path: Path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_metrics(children) -> dict:
    """Per-layer metrics of one pass from ``[(child_wall_s, span_rows), ...]``.

    ``<name>.self_s`` is a span's duration minus its child spans; with
    ``other.self_s`` (child wall time no span covers: interpreter start,
    tracer bookkeeping) the self times add up to the pass's wall time.
    ``<name>.s`` sums the outermost spans of a name, so recursion (a
    quadrature call inside an integrand inside a quadrature call) is not
    counted twice.
    """
    out = defaultdict(int)
    for wall, rows in children:
        covered = defaultdict(float)
        for sid, parent, name, t0, t1, counts in rows:
            covered[parent] += t1 - t0
        above = {0: frozenset()}     # span id -> names of its ancestors
        names = {0: None}
        for sid, parent, name, t0, t1, counts in rows:
            names_above = above[parent] | {names[parent]} if parent else above[0]
            above[sid], names[sid] = names_above, name
            dur = t1 - t0
            out[f"{name}.self_s"] += dur - covered[sid]
            out[f"{name}.calls"] += 1
            for key, value in (counts or {}).items():
                out[f"{name}.{key}"] += value
            if name not in names_above:
                out[f"{name}.s"] += dur
            if name == "weights.estimate" and "weights.critical_indices" in names_above:
                out["weights.critical_indices.estimator_calls"] += 1
        out["other.self_s"] += wall - covered[0]
        for camp in (r for r in rows if r[2] == "verify.run_theorem_campaign"):
            kids = [r for r in rows if r[1] == camp[0]]
            first_atom = min((r[3] for r in kids if r[2] == "atoms.construct_atom"),
                             default=camp[4])
            audit = sum(r[4] - r[3] for r in kids
                        if r[2].startswith("weights.") and r[3] < first_atom)
            sampling = sum(r[4] - r[3] for r in kids if r[2] == "atoms.construct_atom")
            out["verify.audit_s"] += audit
            out["verify.norm_split_s"] += camp[4] - camp[3] - audit - sampling
    out["operators.kernel_evals"] = out.pop("operators.apply_T_batch.kernel_evals", 0)
    return dict(out)


if __name__ == "__main__":
    sys.exit(run_child(sys.argv[1:]))
