"""Far-field probe: rieszkit's apply_T_batch on seeded atoms far from their support.

Usage: python3 probe.py CONFIG OUT

For each atom of CONFIG it builds the atom with ``construct_atom`` and
evaluates the zero-order operator with ``apply_T_batch`` at points whose
preimages are all at least 3 radii from the support centre, out to the
truncation a theorem campaign uses for that ball.  OUT receives the atoms'
polynomial coefficients, the points and the values; the benchmark compares
them with an mpmath reference outside the timed region.
"""

import json
import sys
from pathlib import Path

import numpy as np

from rieszkit.atoms import AtomParams, construct_atom
from rieszkit.geometry import Ball, MatrixFamily, expanded_balls
from rieszkit.operators import ExponentProfile, apply_T_batch
from rieszkit.weights import PowerWeight


def truncation(ball: Ball, family: MatrixFamily, outer_octaves: int) -> float:
    """Outer extent of a campaign's norm integral for atoms on ``ball``."""
    spans = [(float(b.center[0] - b.radius), float(b.center[0] + b.radius))
             for b in expanded_balls(ball, family)]
    scale = max(abs(lo) + abs(hi) for lo, hi in spans)
    return (scale + 1.0) * 2.0**outer_octaves


def main(argv) -> int:
    cfg_path, out_path = argv
    cfg = json.loads(Path(cfg_path).read_text())
    family = MatrixFamily(tuple(np.array([[m]]) for m in cfg["matrices"]))
    alphas = tuple(cfg["alphas"])
    profile = ExponentProfile(1.0 - sum(alphas), alphas, 1)
    weight = PowerWeight(cfg["weight_exponent"], 1)
    atoms = []
    for spec in cfg["atoms"]:
        ball = Ball([spec["center"]], spec["radius"])
        params = AtomParams(cfg["p"], cfg["p0"], spec["d"], weight, 1)
        atom = construct_atom(ball, params, spec["seed"])
        near = abs(spec["center"]) + 4.0 * spec["radius"]
        side = np.geomspace(near, truncation(ball, family, cfg["outer_octaves"]),
                            cfg["points"])
        xs = np.concatenate([-side[::-1], side])
        values = apply_T_batch(atom.function(), xs[:, None], profile, family)
        atoms.append({**spec, "coeffs": sorted(atom.profile.to_dict()["coeffs"]),
                      "x": xs.tolist(), "values": values.tolist()})
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    Path(out_path).write_text(json.dumps({"matrices": cfg["matrices"], "alphas": cfg["alphas"],
                                          "atoms": atoms}, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
