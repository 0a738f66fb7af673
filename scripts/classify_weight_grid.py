#!/usr/bin/env python3
"""Finiteness verdicts of the Muckenhoupt estimator over a power-weight grid.

Prints a table of (exponent a, integrability exponent p) cells; the verdict
should be "finite" exactly when p exceeds the weight's critical index q_w
(``critical_indices``, in closed form: max(1, 1 + a/n)), so it flips along
a = n (p - 1).  Both are exact, so every cell is judged, and a cell on that
line (p = q_w) reads "diverging".

Usage:
    python scripts/classify_weight_grid.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rieszkit import (PowerWeight, critical_indices, default_ball_family,  # noqa: E402
                      estimate_Ap_constant)

EXPONENTS = (-0.8, -1.0 / 3.0, 0.0, 0.25, 0.5, 0.9)
PS = (1.25, 1.5, 2.0, 3.0)


def main() -> int:
    family = default_ball_family(1)
    header = "a \\ p " + "".join(f"{p:>9.2f}" for p in PS)
    print(header)
    mismatches = 0
    for a in EXPONENTS:
        row = [f"{a:6.2f}"]
        q_w = critical_indices(PowerWeight(a)).q_critical
        for p in PS:
            verdict = estimate_Ap_constant(PowerWeight(a), p, family).verdict
            mark = "fin" if verdict == "finite" else "div"
            if (verdict == "finite") != (p > q_w):
                mark += "!"
                mismatches += 1
            row.append(f"{mark:>9}")
        print("".join(row))
    print(f"{mismatches} mismatches against the p > q_w rule")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
