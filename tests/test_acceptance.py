"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a PASS line (visible with ``pytest -s``); the test name
carries the criterion number so the ``-v`` listing doubles as the
acceptance report.  Runtime budgets are asserted where the criteria state
them.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from rieszkit import (AtomParams, AtomSampler, ExponentProfile, MaximalPolicy,
                      PowerWeight, apply_T, check_critical_index_chains,
                      check_pointwise_atom_bound, check_rh_ball_inequality,
                      critical_indices, default_ball_family, equal_split,
                      estimate_Ap_constant, fractional_maximal, hl_maximal,
                      identity_family, indicator, riesz_potential,
                      sample_atom_campaign, scalar_family, validate_atom)
from rieszkit.cli import main as cli_main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _report(num, name, detail):
    print(f"ACCEPTANCE {num} {name}: PASS ({detail})")


def test_criterion_1_operator_anchors():
    anchors = []

    t0 = time.monotonic()
    v = riesz_potential(indicator([0.0], 1.0), [0.0], 0.5)
    dt = time.monotonic() - t0
    assert v == pytest.approx(4.0, rel=1e-3)
    assert dt < 5.0
    anchors.append(f"riesz1d={v:.6f} in {dt:.2f}s")

    t0 = time.monotonic()
    v = apply_T(indicator([1.5], 0.5), [0.0], equal_split(0.0, 2, 1),
                scalar_family([1.0, -1.0], pairwise_invertible=True))
    dt = time.monotonic() - t0
    assert v == pytest.approx(math.log(2.0), rel=1e-3)
    assert dt < 5.0
    anchors.append(f"zero-order={v:.6f} in {dt:.2f}s")

    t0 = time.monotonic()
    v = riesz_potential(indicator([0.0, 0.0], 1.0), [0.0, 0.0], 1.0)
    dt = time.monotonic() - t0
    assert v == pytest.approx(2.0 * math.pi, rel=1e-3)
    assert dt < 5.0
    anchors.append(f"riesz2d={v:.6f} in {dt:.2f}s")

    _report(1, "closed-form operator anchors", "; ".join(anchors))


def test_criterion_2_power_weight_classifier():
    t0 = time.monotonic()
    family = default_ball_family(1)
    margin = 0.2
    checked = 0
    for a in (-0.8, -1.0 / 3.0, 0.0, 0.25, 0.5, 0.9):
        for p in (1.25, 1.5, 2.0, 3.0):
            boundary = (abs(a - (p - 1.0)) < margin - 1e-9
                        or abs(a + 1.0) < margin - 1e-9)
            if boundary:
                continue
            predicted = -1.0 < a < (p - 1.0)
            rep = estimate_Ap_constant(PowerWeight(a), p, family)
            assert (rep.verdict == "finite") == predicted, (a, p, rep.verdict)
            checked += 1
    dt = time.monotonic() - t0
    assert dt < 60.0
    _report(2, "power-weight classifier", f"{checked} non-boundary cells in {dt:.1f}s")


def test_criterion_3_critical_indices_and_chains():
    family = default_ball_family(1)
    idx = critical_indices(PowerWeight(0.5), family)
    assert idx.q_critical == pytest.approx(1.5, abs=0.02)
    idx8 = critical_indices(PowerWeight(-0.125), family)
    assert idx8.rh_critical == pytest.approx(8.0, abs=0.2)

    chain1 = check_critical_index_chains(PowerWeight(-0.125), 0.5, None, family)
    assert chain1.passed()
    chain2 = check_critical_index_chains(PowerWeight(-0.125), 0.5, 1.0, family)
    assert chain2.passed()
    _report(3, "critical indices",
            f"q~={idx.q_critical:.4f}, r={idx8.rh_critical:.4f}, chains pass")


def test_criterion_4_pointwise_atom_bound():
    params = AtomParams(1.0, 2.0, 0, PowerWeight(0.0), 1)

    rep1 = check_pointwise_atom_bound(params, ExponentProfile(0.5, (0.5,), 1),
                                      identity_family(1), [0.0], seed=3)
    assert rep1.passed()
    assert rep1.stability["drift_radii"] < 4.0
    assert rep1.stability["drift_refine"] < 4.0
    agree1 = rep1.extras["form_agreement"]
    assert 0.0 < agree1["min"] <= agree1["max"] < math.inf

    rep2 = check_pointwise_atom_bound(params, ExponentProfile(0.5, (0.25, 0.25), 1),
                                      scalar_family([1.0, -1.0]), [0.0], seed=3)
    assert rep2.passed()
    assert rep2.stability["drift_radii"] < 4.0
    assert rep2.stability["drift_refine"] < 4.0
    agree2 = rep2.extras["form_agreement"]
    assert 0.0 < agree2["min"] <= agree2["max"] < math.inf

    _report(4, "pointwise atom bound",
            f"m=1 C*={rep1.worst:.4f} drift {rep1.stability['drift_radii']:.2f}; "
            f"m=2 C*={rep2.worst:.4f}; form ratio within "
            f"[{min(agree1['min'], agree2['min']):.3f}, "
            f"{max(agree1['max'], agree2['max']):.3f}]")


def test_criterion_5_theorem_campaigns(tmp_path):
    budgets = []
    for name in ("thm1-smoke.json", "ta-worked.json"):
        t0 = time.monotonic()
        code = cli_main(["verify", "--config", os.path.join(CONFIG_DIR, name),
                         "--out", str(tmp_path / name.replace(".json", ""))])
        dt = time.monotonic() - t0
        assert code == 0, name
        assert dt < 600.0
        budgets.append(f"{name} in {dt:.1f}s")

    # hypothesis edits must be refused
    raw = json.load(open(os.path.join(CONFIG_DIR, "ta-worked.json")))
    raw["exponents"] = {"alpha": 0.9, "alphas": [0.05, 0.05]}
    bad_ta = tmp_path / "bad-ta.json"
    bad_ta.write_text(json.dumps(raw))
    assert cli_main(["verify", "--config", str(bad_ta),
                     "--out", str(tmp_path / "bad-ta")]) == 3

    raw = json.load(open(os.path.join(CONFIG_DIR, "thm1-smoke.json")))
    raw["matrices"] = [[[1.0]], [[1.0]]]
    bad_thm1 = tmp_path / "bad-thm1.json"
    bad_thm1.write_text(json.dumps(raw))
    assert cli_main(["verify", "--config", str(bad_thm1),
                     "--out", str(tmp_path / "bad-thm1")]) == 3

    _report(5, "theorem campaigns", "; ".join(budgets) + "; violations refused")


def test_criterion_6_rh_ball_inequality():
    family = default_ball_family(1)
    flat = check_rh_ball_inequality(PowerWeight(0.0), 1.0, 0.5, family)
    assert flat.passed()
    assert abs(flat.worst) < 1e-8 and abs(flat.extras["max_slack"]) < 1e-8

    w1 = check_rh_ball_inequality(PowerWeight(-0.125), 0.75, 0.5, family)
    assert w1.passed()
    assert w1.worst >= -1e-10 and w1.extras["max_slack"] > 0.0

    w2 = check_rh_ball_inequality(PowerWeight(0.25), 1.0, 0.5, family)
    assert w2.passed()
    assert w2.worst >= -1e-10 and w2.extras["max_slack"] > 0.0
    _report(6, "reverse Holder ball inequality",
            f"unit slack {flat.worst:.2e}; weighted max slacks "
            f"{w1.extras['max_slack']:.3f}, {w2.extras['max_slack']:.3f}")


def test_criterion_7_atom_suite():
    weights = (PowerWeight(0.5), PowerWeight(-0.125))
    radii = (0.25, 1.0, 4.0)
    manifests = []
    total = 0
    for w in weights:
        params = AtomParams(1.0, 2.0, 0, w, 1)
        sampler = AtomSampler((np.array([0.0]), np.array([1.0])), radii)
        atoms = sample_atom_campaign(params, sampler, 100, seed=2024)
        for atom in atoms:
            assert validate_atom(atom).passed
        total += len(atoms)
        manifests.append(json.dumps([a.to_record() for a in atoms], sort_keys=True))
        rerun = sample_atom_campaign(params, sampler, 100, seed=2024)
        assert json.dumps([a.to_record() for a in rerun],
                          sort_keys=True) == manifests[-1]
    _report(7, "atom suite", f"{total} atoms valid; reruns byte-identical")


def test_criterion_8_maximal_anchors():
    f = indicator([0.0], 1.0)
    base = MaximalPolicy(cells_per_unit=64)
    refined = base.refine(2)
    v1 = hl_maximal(f, [2.0], refined)
    assert v1 == pytest.approx(2.0 / 3.0, rel=1e-3)
    v2 = fractional_maximal(f, [0.0], 0.5, refined)
    assert v2 == pytest.approx(math.sqrt(2.0), rel=1e-3)

    # exhaustive-search oracle on a 64-cell grid
    def oracle(x, beta, lo, hi):
        pts = np.linspace(lo, hi, 65)
        mids = 0.5 * (pts[:-1] + pts[1:])
        h = pts[1] - pts[0]
        fv = f.eval(mids[:, None]) * h
        cum = np.concatenate([[0.0], np.cumsum(fv)])
        best = 0.0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if pts[i] <= x <= pts[j]:
                    mass = cum[j] - cum[i]
                    best = max(best, (pts[j] - pts[i]) ** (beta - 1.0) * mass)
        return best

    # lattice chosen so the optimal endpoints are grid points
    assert oracle(2.0, 0.0, -3.0, 5.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert hl_maximal(f, [2.0], refined) == pytest.approx(
        oracle(2.0, 0.0, -3.0, 5.0), rel=1e-9)
    assert oracle(0.0, 0.5, -4.0, 4.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert fractional_maximal(f, [0.0], 0.5, refined) == pytest.approx(
        oracle(0.0, 0.5, -4.0, 4.0), rel=1e-9)
    _report(8, "maximal-function anchors",
            f"M={v1:.6f} (2/3), M_1/2={v2:.6f} (sqrt 2), oracle agreement")
