#!/usr/bin/env python3
"""Run every bundled config end to end and summarize the exit codes.

Usage:
    python scripts/run_all_verifications.py [--out DIR] [--jobs N]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rieszkit.cli import main as rieszkit_main  # noqa: E402

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

RUNS = [
    ("weights", "classify", "weights-power-half.json"),
    ("weights", "classify", "weights-log.json"),
    ("weights", "classify", "weights-product.json"),
    ("weights", "classify", "weights-product-plane.json"),
    ("weights", "classify", "weights-tabulated-plane.json"),
    ("operator", "sweep", "sweep-riesz.json"),
    ("operator", "sweep", "sweep-t02.json"),
    ("operator", "sweep", "sweep-disk.json"),
    ("atoms", "gen", "atoms-campaign.json"),
    # validates the atoms.jsonl that the gen run above wrote into the same --out
    ("atoms", "validate", "atoms-campaign.json"),
    ("verify", None, "thm1-smoke.json"),
    ("verify", None, "ta-worked.json"),
    ("verify", None, "corollary.json"),
    ("verify", None, "maximal-power-half.json"),
    ("verify", None, "pointwise-off-centre.json"),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    failures = 0
    for command, action, config in RUNS:
        cfg_path = os.path.join(CONFIG_DIR, config)
        out_dir = os.path.join(args.out, os.path.splitext(config)[0])
        argv = [command] + ([action] if action else []) + [
            "--config", cfg_path, "--out", out_dir, "--jobs", str(args.jobs)]
        print(f"== rieszkit {' '.join(argv)}")
        t0 = time.time()
        code = rieszkit_main(argv)
        print(f"   -> exit {code} in {time.time() - t0:.1f}s")
        failures += code != 0
    print(f"{len(RUNS) - failures}/{len(RUNS)} runs passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
