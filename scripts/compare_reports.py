#!/usr/bin/env python3
"""Compare two output trees file by file, ignoring report timestamps.

Usage:
    python scripts/compare_reports.py A_DIR B_DIR

JSON reports are compared without their top-level ``timestamp``; JSON-lines
and CSV files are compared value by value. For each file the script prints
"identical", the largest relative change of a float and its key path (such
as ``report.worst``, or ``[2][1]`` for row 2, column 1 of a CSV file) with
the largest change of any float in units in the last place (the number of
doubles between the two values), or the key path of the first other
difference and what differs there (such as ``report.stability: keys
changed``). It exits 1 on any difference (a changed
float, a changed non-numeric value, a file present on one side only).
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
import sys


def _files(root: str) -> set:
    return {os.path.relpath(os.path.join(d, name), root)
            for d, _, names in os.walk(root) for name in names}


def _load(path: str):
    """The comparable content of one file: parsed JSON, JSON lines, or CSV rows."""
    with open(path) as fh:
        if path.endswith(".json"):
            data = json.load(fh)
            if isinstance(data, dict):
                data.pop("timestamp", None)
            return data
        if path.endswith(".jsonl"):
            return [json.loads(line) for line in fh if line.strip()]
        if path.endswith(".csv"):
            return [[_number(cell) for cell in row] for row in csv.reader(fh)]
        return fh.read()


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _rel(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _ulps(a: float, b: float) -> int:
    """The number of doubles from a to b, for finite a and b (0 when equal)."""
    def ordered(x: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)

    return abs(ordered(a) - ordered(b))


def largest_change(a, b, path: str = "") -> tuple:
    """(change, path, what, ulps) between two parsed values: the largest
    relative change of a number and the key path where it is, with the
    largest change of any number in ulps, or inf with the path of the first
    other difference and what differs there (a key set, a length, a type, a
    string or a non-finite number)."""
    numeric = (int, float)
    if isinstance(a, numeric) and isinstance(b, numeric) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        change = _rel(float(a), float(b))
        if math.isinf(change):
            return change, path, "non-finite number changed", 0
        return change, path, "", 0 if change == 0.0 else _ulps(float(a), float(b))
    if type(a) is not type(b):
        return math.inf, path, "type changed", 0
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return math.inf, path, "keys changed", 0
        items = [(f"{path}.{k}" if path else str(k), a[k], b[k]) for k in a]
    elif isinstance(a, list):
        if len(a) != len(b):
            return math.inf, path, "length changed", 0
        items = [(f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b))]
    else:
        return (0.0, path, "", 0) if a == b else (math.inf, path, "value changed", 0)
    best, ulps = (0.0, path, ""), 0
    for sub, x, y in items:
        found = largest_change(x, y, sub)
        if math.isinf(found[0]):
            return found
        best = max(best, found[:3], key=lambda item: item[0])
        ulps = max(ulps, found[3])
    return (*best, ulps)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a_dir, b_dir = argv
    a_files, b_files = _files(a_dir), _files(b_dir)
    differ = 0
    for rel in sorted(a_files | b_files):
        if rel not in b_files or rel not in a_files:
            status = f"only in {a_dir if rel in a_files else b_dir}"
        else:
            change, path, what, ulps = largest_change(_load(os.path.join(a_dir, rel)),
                                                      _load(os.path.join(b_dir, rel)))
            status = ("identical" if change == 0.0 else
                      f"non-numeric or non-finite change: {path or '(file)'}: {what}"
                      if math.isinf(change) else
                      f"largest relative change {change:.3e} at {path}, largest {ulps} ulp")
        differ += status != "identical"
        print(f"{status:34s} {rel}")
    print(f"{len(a_files | b_files) - differ}/{len(a_files | b_files)} files identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
