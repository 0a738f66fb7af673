"""rieszkit benchmark: seeded workloads through the CLI, timed and checked.

    python3 perfbench/run.py --workload campaign|classify|sweep|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is used from ``src/``
as it stands.  Every invocation is a fresh child process (``--jobs 1``,
one BLAS/OpenMP thread).  A run repeats passes over the workload's
invocations until ``--seconds`` is spent (at least two passes, so reruns
can be compared byte for byte) and checks every pass's outputs.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json
(medians over passes).  With ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics of the traced pass with
the median wall time, plus the tracing overhead.  ``--workload all``
interleaves the three workloads in every repetition.  The last line of
standard output is one JSON object; the lines before it print every metric
by name and unit, the accuracy figures and the run environment.  Outputs,
configs and span files stay in ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import tracer
from workloads import WORKLOADS, payload_bytes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
BUDGET_S = 170.0          # every child is stopped by then, so a run ends within 180 s
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = ("import sys, rieszkit.cli\n"
              "from rieszkit.config import load_config\n"
              "for path in sys.argv[1:]:\n"
              "    load_config(path)\n")
EXTRA_UNITS = {"fail_frac": "1", "anchor_rel_err": "1", "endpoint_points": "count",
               "endpoint_rel_err": "1", "farfield_rel_err": "1"}
READ_ERRORS = (OSError, KeyError, IndexError, TypeError, ValueError, csv.Error)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


class Children:
    """Runs one child at a time; records its wall time and peak RSS."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def run(self, argv, log_path: Path):
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in argv], stdout=log,
                                    stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline


def _holds(fn, pass_dir: Path):
    try:
        return bool(fn(pass_dir)), ""
    except READ_ERRORS as exc:
        return False, f"{type(exc).__name__}: {exc}"


class Session:
    """One workload's configs, passes and check results within a run."""

    def __init__(self, name: str, seed: int, children: Children):
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "configs").mkdir(parents=True)
        self.wl = WORKLOADS[name](seed, self.dir / "configs")
        self.children = children
        self.setup_s = []
        self.passes = []
        self.attempted = 0
        self.failures = []
        self.accuracy = {}
        self.stage = ""             # "set-up" or "pass N", for failure messages

    def record(self, label: str, ok: bool, why: str = ""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{self.stage}: {label}" + (f" ({why})" if why else ""))

    def setup(self, repeats: int):
        """Fresh interpreters importing rieszkit and parsing the configs
        (the median of several absorbs the one that compiles bytecode)."""
        self.stage = "set-up"
        for i in range(repeats):
            rc, wall, _ = self.children.run(
                [sys.executable, "-c", SETUP_CODE, *self.wl.configs],
                self.dir / f"setup-{i}.log")
            self.record("exit code 0", rc == 0, f"exit code {rc}")
            self.setup_s.append(wall)

    def run_pass(self, traced: bool):
        self.stage = f"pass {len(self.passes)}"
        pass_dir = self.dir / f"pass-{len(self.passes)}"
        pass_dir.mkdir()
        timed = []
        for inv in self.wl.invocations:
            args = [a.replace("{pass}", str(pass_dir)) for a in inv.args]
            spans = pass_dir / f"{inv.name}.spans.jsonl"
            if traced:
                argv = [sys.executable, HERE / "tracer.py", spans, inv.kind, *args]
            elif inv.kind == "cli":
                argv = [sys.executable, "-m", "rieszkit.cli", *args]
            else:
                argv = [sys.executable, HERE / "probe.py", *args]
            rc, wall, rss = self.children.run(argv, pass_dir / f"{inv.name}.log")
            self.record(f"{inv.name} exit code 0", rc == 0, f"exit code {rc}")
            timed.append((wall, rss, spans))
        for label, fn in self.wl.checks:
            self.record(label, *_holds(fn, pass_dir))
        first = self.dir / "pass-0"
        if pass_dir != first:
            for rel in self.wl.outputs:
                same = lambda p, rel=rel: payload_bytes(p / rel) == payload_bytes(first / rel)
                self.record(f"{rel} identical to pass 0", *_holds(same, pass_dir))
        if self.wl.accuracy is not None:
            try:
                self.accuracy = self.wl.accuracy(pass_dir)
            except READ_ERRORS as exc:
                self.record("accuracy figures readable", False, str(exc))
        layers = None
        if traced:
            try:
                layers = tracer.layer_metrics(
                    [(wall, tracer.read_spans(spans)) for wall, _, spans in timed])
            except (OSError, ValueError) as exc:
                self.record("span files readable", False, str(exc))
        self.passes.append({"traced": traced, "wall_s": sum(t[0] for t in timed),
                            "child_wall_s": [t[0] for t in timed],
                            "peak_rss_mb": max(t[1] for t in timed), "layers": layers})

    @property
    def failed(self) -> int:
        return len(self.failures)

    def end_to_end(self) -> dict:
        plain = [p for p in self.passes if not p["traced"]]
        return {"wall_s": statistics.median(p["wall_s"] for p in plain),
                "setup_s": statistics.median(self.setup_s) if self.setup_s else None,
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain)}

    def per_layer(self, names) -> dict:
        traced = sorted((p for p in self.passes if p["traced"] and p["layers"]),
                        key=lambda p: p["wall_s"])
        if not traced:
            return {}
        chosen = traced[(len(traced) - 1) // 2]
        plain = statistics.median(p["wall_s"] for p in self.passes if not p["traced"])
        layers = {**chosen["layers"], "trace.wall_s": chosen["wall_s"],
                  "trace.overhead_s": chosen["wall_s"] - plain}
        return {name: layers.get(name, 0) for name in names}


def schedule(sessions, seconds: float, trace: bool, children: Children):
    """Repetitions of one pass per workload (untraced, then traced when
    tracing), interleaved, until the next repetition would overrun."""
    modes = (False, True) if trace else (False,)
    min_reps = 1 if trace else 2
    start = time.perf_counter()
    reps = 0
    while not children.expired():
        for session in sessions:
            for traced in modes:
                session.run_pass(traced)
        reps += 1
        elapsed = time.perf_counter() - start
        if reps >= min_reps and elapsed * (reps + 1) / reps > seconds:
            break


def environment() -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), **versions,
            **{var: "1" for var in THREAD_VARS}}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_session(s: Session, spec: dict, trace: bool) -> dict:
    """Print one workload's metrics and return the ones BENCHMARK.json names."""
    name = s.wl.name
    plain = [p["wall_s"] for p in s.passes if not p["traced"]]
    e2e = s.end_to_end()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    quart = statistics.quantiles(plain, n=4) if len(plain) > 1 else [plain[0]] * 3
    print(f"{name} wall_s {_fmt(e2e['wall_s'])} s (median; q1 {_fmt(quart[0])},"
          f" q3 {_fmt(quart[2])}, n={len(plain)} untraced passes)")
    if s.setup_s:
        print(f"{name} setup_s {_fmt(e2e['setup_s'])} s (median of {len(s.setup_s)})")
    print(f"{name} peak_rss_mb {_fmt(e2e['peak_rss_mb'])} MB (largest child of a pass,"
          f" median over passes)")
    extras = {"fail_frac": s.failed / max(s.attempted, 1), **s.accuracy}
    for key, value in extras.items():
        print(f"{name} {key} {_fmt(value)} {EXTRA_UNITS[key]}")
    print(f"{name} checks: {s.attempted - s.failed} of {s.attempted} correct")
    for line in s.failures:
        print(f"{name} FAILED {line}")
    if not trace:
        return {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]}
    layers = s.per_layer([m["name"] for m in spec["per_layer"]])
    if not layers:
        return {}
    for key, value in layers.items():
        print(f"{name} {key} {_fmt(value)} {units[key]}")
    self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    print(f"{name} layer self times + other.self_s = {_fmt(self_sum)} s;"
          f" traced wall_s = {_fmt(layers['trace.wall_s'])} s;"
          f" tracing overhead {_fmt(layers['trace.overhead_s'])} s over the untraced"
          f" median {_fmt(e2e['wall_s'])} s")
    return {key: {"value": value, "unit": units[key]} for key, value in layers.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    if not (SRC / "rieszkit" / "cli.py").is_file():
        print(f"no rieszkit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # a terminated run still stops the child it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    children = Children(start + BUDGET_S)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    sessions = [Session(name, args.seed, children) for name in names]
    if not args.trace:
        for session in sessions:
            session.setup(SETUP_REPEATS)
    schedule(sessions, args.seconds, bool(args.trace), children)

    env = environment()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace} elapsed={time.perf_counter() - start:.1f}s")
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    metrics = {}
    for session in sessions:
        for key, value in report_session(session, spec, bool(args.trace)).items():
            metrics[key if len(sessions) == 1 else f"{session.wl.name}.{key}"] = value
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    (WORK / "result.json").write_text(json.dumps(
        {"args": vars(args), "environment": env, "metrics": metrics,
         "passes": {s.wl.name: s.passes for s in sessions},
         "failures": {s.wl.name: s.failures for s in sessions}}, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
