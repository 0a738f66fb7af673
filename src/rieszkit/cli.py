"""Config-driven experiment runner.

Subcommands expose the toolkit's checks and operators with reproducible
seeds.  Exit codes are scriptable: 0 all checks passed, 2 a check failed,
3 a hypothesis audit failed, 4 the config did not validate.  Reports are
deterministic given (config, seed); the write timestamp is kept in a
separate top-level field so byte comparisons can ignore it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from typing import TYPE_CHECKING

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, HypothesisFailed, RieszkitError, require_hypotheses
from .records import replace

if TYPE_CHECKING:
    from .atoms import CampaignSpec

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_HYPOTHESIS = 3
EXIT_CONFIG = 4


def _with_seed(spec: CampaignSpec, seed: int | None) -> CampaignSpec:
    if seed is None:
        return spec
    return replace(spec, seed=int(seed))


def _strict(v):
    """``v`` as strict JSON takes it: a non-finite float as "inf", "-inf" or
    "nan" (JSON has no number for them) and a numpy scalar as a float."""
    if isinstance(v, dict):
        return {k: _strict(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_strict(x) for x in v]
    if isinstance(v, (float, np.floating, np.integer)):
        v = float(v)
        if not math.isfinite(v):
            return "nan" if math.isnan(v) else "inf" if v > 0 else "-inf"
    return v


def _json(payload: dict) -> str:
    return json.dumps(_strict(payload), sort_keys=True, indent=1, allow_nan=False)


def _write_report(out_dir: str, name: str, payload: dict):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.json")
    with open(path, "w") as fh:
        fh.write(_json({"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), "report": payload}))
        fh.write("\n")
    return path


def _write_witness_csv(out_dir: str, name: str, rows):
    if not rows:
        return None
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.csv")
    keys = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        for row in rows:
            writer.writerow([row.get(k) for k in keys])
    return path


def cmd_weights_classify(cfg: RunConfig, out_dir: str) -> int:
    """Estimate the configured class constants and critical indices."""
    from .weights import (critical_indices, estimate_A1_constant, estimate_Ap_constant,
                          estimate_Apq_constant, estimate_RH_constant)

    block = cfg.classify_block or {}
    family = cfg.family
    w = cfg.weight
    # config.validate_classify has checked every kind and its parameters
    estimate = {
        "A1": lambda c: estimate_A1_constant(w, family),
        "Ap": lambda c: estimate_Ap_constant(w, float(c["p"]), family),
        "Apq": lambda c: estimate_Apq_constant(w, float(c["p"]), float(c["q"]), family),
        "RH": lambda c: estimate_RH_constant(w, float(c["s"]), family),
    }
    payload = {"classes": [estimate[cls["kind"]](cls).to_dict()
                           for cls in block.get("classes", [{"kind": "A1"}])],
               "critical_indices": critical_indices(w).to_dict()}
    _write_report(out_dir, "weights-classify", payload)
    print(_json(payload))
    return EXIT_OK


def cmd_operator_sweep(cfg: RunConfig, out_dir: str) -> int:
    """Evaluate the configured operator on an x-lattice and emit CSV."""
    from .operators import apply_T_batch

    if not cfg.sweeps:
        return EXIT_OK
    if cfg.exponents is None or cfg.matrices is None:
        raise ConfigError("sweeps", "operator sweeps need matrices and exponents")
    os.makedirs(out_dir, exist_ok=True)
    for sweep in cfg.sweeps:
        xs = np.linspace(sweep["x_min"], sweep["x_max"], sweep["points"])
        if cfg.dimension == 1:
            pts = xs[:, None]
        else:
            pts = np.column_stack([xs, np.zeros_like(xs)])
        vals = apply_T_batch(sweep["function"], pts, cfg.exponents, cfg.matrices,
                             cfg.quadrature)
        path = os.path.join(out_dir, f"{sweep['name']}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{i}" for i in range(cfg.dimension)] + ["value"])
            for pt, v in zip(pts, vals):
                writer.writerow([repr(float(c)) for c in pt[:cfg.dimension]] + [repr(float(v))])
        print(f"wrote {path}")
    return EXIT_OK


def _atom_params_from(cfg: RunConfig):
    """``(params, audits)``: the atom block's parameters and the audits of
    their class from one ``atoms.class_audits`` call.  A degree is derived
    only once the A_infinity audit passes, so without ``atom.d`` a failed
    audit raises here."""
    from .atoms import AtomParams, class_audits

    if cfg.campaign is None:
        raise ConfigError("atom", "atom generation needs an atom/campaign block")
    spec = cfg.campaign
    audits, d = class_audits(cfg.weight, spec.p, spec.d)
    if d is None:
        require_hypotheses(audits)
    return AtomParams(spec.p, spec.p0, d, cfg.weight, cfg.dimension), audits


def cmd_atoms_gen(cfg: RunConfig, out_dir: str, seed: int | None) -> int:
    from .atoms import AtomSampler, sample_atom_campaign, write_atom_manifest

    params = _atom_params_from(cfg)[0]
    spec = _with_seed(cfg.campaign, seed)
    sampler = AtomSampler(tuple(np.asarray(c) for c in spec.centers), spec.radii)
    atoms = sample_atom_campaign(params, sampler, spec.count, spec.seed)
    os.makedirs(out_dir, exist_ok=True)
    manifest = os.path.join(out_dir, "atoms.jsonl")
    write_atom_manifest(atoms, manifest)
    print(f"wrote {manifest} ({len(atoms)} atoms)")
    return EXIT_OK


def cmd_atoms_validate(cfg: RunConfig, out_dir: str, manifest: str) -> int:
    from .atoms import read_atom_manifest, validate_atom

    atoms = read_atom_manifest(manifest)
    rows = []
    all_ok = True
    for i, atom in enumerate(atoms):
        rep = validate_atom(atom)
        rows.append({"index": i, **rep.to_dict()})
        all_ok &= rep.passed
    _write_report(out_dir, "atoms-validate", {"count": len(atoms), "all_passed": all_ok,
                                              "results": rows})
    print(f"validated {len(atoms)} atoms: {'all passed' if all_ok else 'FAILURES'}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _run_check(cfg: RunConfig, item: dict, seed: int | None, jobs: int):
    """Run one check on the parameters ``config.validate_check`` returned."""
    from .verify import (check_maximal_inequalities, check_pointwise_atom_bound,
                         check_rh_ball_inequality, run_theorem_campaign)

    name = item["check"]
    if name in ("theorem-thm1", "theorem-ta"):
        kind = "thm-zero" if name == "theorem-thm1" else "thm-positive"
        return run_theorem_campaign(kind, cfg.weight, cfg.exponents, cfg.matrices,
                                    _with_seed(cfg.campaign, seed), jobs=jobs)
    if name == "pointwise-atom-bound":
        params, audits = _atom_params_from(cfg)
        return check_pointwise_atom_bound(
            params, cfg.exponents, cfg.matrices, item["center"], radii=item["radii"],
            seed=seed if seed is not None else item["seed"], audits=audits)
    if name == "rh-ball-inequality":
        return check_rh_ball_inequality(cfg.weight, item["p"], item["alpha"], cfg.family)
    return check_maximal_inequalities(cfg.weight, item["p"], item["test_balls"], item["alpha"])


def cmd_verify(cfg: RunConfig, out_dir: str, seed: int | None, jobs: int) -> int:
    """Run the selected checks; exit 0 only if every verdict is a pass."""
    if not cfg.checks:
        raise ConfigError("checks", "verify needs a nonempty checks list")
    all_pass = True
    for i, item in enumerate(cfg.checks):
        name = item["check"]
        tag = f"{i:02d}-{name}"
        try:
            report = _run_check(cfg, item, seed, jobs)
        except HypothesisFailed as exc:
            _write_report(out_dir, tag, {"check_id": name, "verdict": "hypothesis-failed",
                                         "failed_item": exc.item, "detail": exc.detail})
            print(f"[{name}] HYPOTHESIS FAILED: {exc.item} ({exc.detail})")
            return EXIT_HYPOTHESIS
        payload = report.to_dict()
        _write_report(out_dir, tag, payload)
        if report.witnesses and all(isinstance(wit, dict) for wit in report.witnesses):
            _write_witness_csv(out_dir, f"{tag}-witnesses", report.witnesses)
        print(f"[{name}] {report.verdict} (worst {report.worst:.6g})")
        all_pass &= report.passed()
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszkit",
        description="Product-kernel fractional integrals, weight diagnostics, "
                    "and weighted-atom verification campaigns")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's campaign seed")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for campaigns")

    pw = sub.add_parser("weights", help="weight diagnostics")
    pw.add_argument("action", choices=["classify"])
    common(pw)

    po = sub.add_parser("operator", help="operator evaluation")
    po.add_argument("action", choices=["sweep"])
    common(po)

    pa = sub.add_parser("atoms", help="atom generation and validation")
    pa.add_argument("action", choices=["gen", "validate"])
    pa.add_argument("--manifest", default=None,
                    help="atom manifest to validate (JSON lines)")
    common(pa)

    pv = sub.add_parser("verify", help="run verification checks")
    common(pv)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = args.out or os.path.join(cfg.base_dir, cfg.output_dir)
        seed = args.seed if args.seed is not None else cfg.seed
        if seed is not None and seed < 0:
            raise ConfigError("--seed", "must be a nonnegative integer")
        if args.jobs < 1:
            raise ConfigError("--jobs", "must be a positive integer")
        if args.command == "weights":
            return cmd_weights_classify(cfg, out_dir)
        if args.command == "operator":
            return cmd_operator_sweep(cfg, out_dir)
        if args.command == "atoms":
            if args.action == "gen":
                return cmd_atoms_gen(cfg, out_dir, seed)
            manifest = args.manifest or os.path.join(out_dir, "atoms.jsonl")
            return cmd_atoms_validate(cfg, out_dir, manifest)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, seed, args.jobs)
        raise ConfigError("(cli)", f"unknown command {args.command}")
    except ConfigError as exc:
        print(json.dumps({"error": "config", "path": exc.path, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisFailed as exc:
        print(json.dumps({"error": "hypothesis", "item": exc.item,
                          "detail": exc.detail}), file=sys.stderr)
        return EXIT_HYPOTHESIS
    except RieszkitError as exc:
        print(json.dumps({"error": "check", "message": str(exc)}), file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
