"""Contract tests of mutated bundled configs.  Parse stage: every mutation
either loads or raises ConfigError (the CLI's exit 4), never any other
exception.  Whole runs: through ``cli.main`` every mutation exits 0, 2, 3 or
4, never with an uncaught exception."""

import contextlib
import copy
import io
import json
import math
import os
import signal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rieszkit.cli import main
from rieszkit.config import load_config
from rieszkit.errors import ConfigError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
BUNDLED = {}
for _name in sorted(os.listdir(CONFIG_DIR)):
    if _name.endswith(".json"):
        with open(os.path.join(CONFIG_DIR, _name)) as _fh:
            BUNDLED[_name] = json.load(_fh)

# a small config for the one check kind that no bundled config runs, so that
# mutations reach its parameters too
BUNDLED["check-rh-ball.json"] = {
    "version": 1, "dimension": 1, "weight": {"kind": "power", "exponent": -0.125},
    "checks": [{"check": "rh-ball-inequality", "p": 1.0, "alpha": 0.5}]}
# every weight carries its scale, so that mutations reach it
for _cfg in BUNDLED.values():
    _cfg["weight"] = {**_cfg["weight"], "scale": 1.0}

# wrong types, out-of-range and non-finite numbers, points of the wrong
# dimension, and a second dimension for the whole config
VALUES = [None, True, "x", [], {}, 0, 1, 2, 3, -1, 10 ** 30, 0.5, -0.5, 1e300, -1e300,
          math.nan, math.inf, -math.inf, [0.0, 0.0], [0.0, 0.0, 0.0], [[0.0]],
          [[[1.0, 0.0], [0.0, 1.0]]], {"kind": "power"}, {"center": [0.0], "radius": 1.0}]


def _paths(node, prefix=()):
    """Every key or index path in a JSON tree, containers included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _mutate(cfg, pick: int, op: str, value):
    paths = list(_paths(cfg))
    path = paths[pick % len(paths)]
    if not path:
        return value if op == "replace" else cfg
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    node = parent[key]
    if op == "drop":
        del parent[key]
    elif op == "replace":
        parent[key] = copy.deepcopy(value)
    elif op == "grow" and isinstance(node, list):
        node.append(copy.deepcopy(node[-1]) if node else 0.0)
    elif op == "shrink" and isinstance(node, list) and node:
        node.pop()
    return cfg


MUTATION = st.tuples(st.integers(0, 10 ** 6), st.sampled_from(["drop", "replace", "grow", "shrink"]),
                     st.sampled_from(VALUES))


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=300, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(BUNDLED)), mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_bundled_configs_load_or_raise_config_error(config_dir, name, mutations):
    cfg = copy.deepcopy(BUNDLED[name])
    for pick, op, value in mutations:
        cfg = _mutate(cfg, pick, op, value)
    path = config_dir / name
    path.write_text(json.dumps(cfg))
    try:
        load_config(str(path))
    except ConfigError:
        pass


# the command that runs each bundled config (atoms validate needs a manifest);
# the theorem campaigns' count is cut to 2 atoms before mutating, so that every
# example fits EXAMPLE_SECONDS
RUNS = {"atoms-campaign.json": ["atoms", "gen"], "corollary.json": ["verify"],
        "maximal-power-half.json": ["verify"],
        "sweep-disk.json": ["operator", "sweep"], "sweep-riesz.json": ["operator", "sweep"],
        "sweep-t02.json": ["operator", "sweep"],
        "ta-worked.json": ["verify"], "thm1-smoke.json": ["verify"],
        "pointwise-off-centre.json": ["verify"],
        "weights-log.json": ["weights", "classify"],
        "weights-power-half.json": ["weights", "classify"],
        "weights-product.json": ["weights", "classify"],
        "weights-product-plane.json": ["weights", "classify"],
        "weights-tabulated-plane.json": ["weights", "classify"],
        **{name: ["verify"] for name in BUNDLED if name.startswith("check-")}}
CAMPAIGN_COUNT = 2
EXAMPLE_SECONDS = 10.0
EXAMPLES_PER_CONFIG = 8


class _OverTime(Exception):
    pass


def _over_time(signum, frame):
    raise _OverTime(f"a whole run took more than {EXAMPLE_SECONDS} s")


@settings(max_examples=EXAMPLES_PER_CONFIG, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutations=st.lists(MUTATION, min_size=1, max_size=3))
def _exits_by_contract(config_dir, name, mutations):
    cfg = copy.deepcopy(BUNDLED[name])
    if cfg.get("checks") and "count" in cfg.get("campaign", {}):
        cfg["campaign"]["count"] = CAMPAIGN_COUNT
    for pick, op, value in mutations:
        cfg = _mutate(cfg, pick, op, value)
    path = config_dir / name
    path.write_text(json.dumps(cfg))
    argv = RUNS[name] + ["--config", str(path), "--out", str(config_dir / "out")]
    previous = signal.signal(signal.SIGALRM, _over_time)
    signal.setitimer(signal.ITIMER_REAL, EXAMPLE_SECONDS)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2, 3, 4), (name, cfg)


def test_mutated_bundled_configs_exit_by_contract(config_dir):
    """Every config in RUNS takes its own EXAMPLES_PER_CONFIG derandomized
    draws of mutations.  One draw of the name per example over all of them
    drew weights-product-plane.json and sweep-riesz.json zero times."""
    for name in sorted(RUNS):
        _exits_by_contract(config_dir, name)
