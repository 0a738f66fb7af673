"""Config validation, subcommands, exit codes, and report determinism."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings

import mpmath
import pytest

from rieszkit.cli import main
from rieszkit.config import KNOWN_CHECKS, MAX_DEGREE, load_config, parse_config
from rieszkit.errors import ConfigError
from rieszkit.quadrature import QuadratureScheme

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _base_config(**extra):
    cfg = {"version": 1, "dimension": 1,
           "weight": {"kind": "power", "exponent": 0.5}}
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------


def test_bundled_configs_validate():
    for name in os.listdir(CONFIG_DIR):
        cfg = load_config(os.path.join(CONFIG_DIR, name))
        assert cfg.dimension == (2 if name in ("sweep-disk.json", "weights-tabulated-plane.json",
                                               "weights-product-plane.json") else 1)


def test_missing_field_paths(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config({"version": 1})
    assert "dimension" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config(_base_config(weight={"kind": "power"}))
    assert "weight.exponent" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config(_base_config(weight={"kind": "power", "exponent": -3.0}))
    assert "weight.exponent" in str(err.value)


def test_matrix_and_exponent_validation():
    cfg = _base_config(matrices=[[[1.0]], [[0.0]]],
                       exponents={"alpha": 0.0, "alphas": "equal-split"})
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert "matrices" in str(err.value)
    cfg = _base_config(matrices=[[[1.0]]],
                       exponents={"alpha": 0.5, "alphas": [0.3]})
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert "exponents" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config(_base_config(version=99))


def test_q_is_derived_not_supplied():
    cfg = parse_config(_base_config(
        matrices=[[[1.0]]], exponents={"alpha": 0.5, "alphas": [0.5]},
        atom={"p": 0.75, "p0": 1.5}, campaign={"count": 2, "s": 0.75}))
    # no q anywhere in the schema; the campaign spec carries only (p, alpha)
    assert cfg.campaign.p == 0.75
    assert not hasattr(cfg.campaign, "q")


def test_unknown_check_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(_base_config(checks=[{"check": "prove-everything"}]))
    assert "checks[0].check" in str(err.value)


@pytest.mark.parametrize("check, field", [
    ({"check": "pointwise-atom-bound", "radii": [1.0, -0.5]}, "checks[0].radii"),
    ({"check": "pointwise-atom-bound", "center": ["0"]}, "checks[0].center"),
    ({"check": "pointwise-atom-bound", "radii": [1.0, 1e300]}, "checks[0].radii[1]"),
    ({"check": "pointwise-atom-bound", "center": [1e300]}, "checks[0].center"),
    ({"check": "rh-ball-inequality", "p": 2.5}, "checks[0].p"),
    ({"check": "maximal-inequality", "p": 0.5}, "checks[0].p"),
    ({"check": "pointwise-atom-bound"}, "checks[0].check"),
    ({"check": "theorem-thm1"}, "checks[0].check"),
    ({"check": "theorem-ta"}, "checks[0].check"),
    ({"check": "maximal-inequality", "test_balls": []}, "checks[0].test_balls"),
    ({"check": "maximal-inequality", "test_balls": [{"center": [0.0], "radius": 0.0}]},
     "checks[0].test_balls[0].radius"),
])
def test_check_parameters_validated(check, field):
    """Every parameter a check reads, and every config block it needs (here
    the matrices, exponents and campaign of the pointwise and theorem
    checks), is validated when the config is parsed."""
    with pytest.raises(ConfigError) as err:
        parse_config(_base_config(checks=[check]))
    assert err.value.path == field


def test_check_defaults_applied_at_parse():
    """The parsed check carries every parameter its runner reads, defaults
    included, so the runner keeps no defaults of its own."""
    cfg = parse_config(_base_config(matrices=[[[1.0]]], exponents={"alpha": 0.5},
                                    atom={"p": 1.0, "p0": 2.0},
                                    checks=[{"check": "maximal-inequality"},
                                            {"check": "pointwise-atom-bound"},
                                            {"check": "rh-ball-inequality"}]))
    maximal, pointwise, rh_ball = cfg.checks
    assert [(b.center.tolist(), b.radius) for b in maximal["test_balls"]] == [
        ([0.0], 1.0), ([0.0], 0.5), ([1.0], 2.0)]
    assert (maximal["p"], maximal["alpha"]) == (2.0, None)
    assert pointwise == {"check": "pointwise-atom-bound", "center": [0.0],
                         "radii": (0.25, 1.0, 4.0), "seed": 0}
    assert rh_ball == {"check": "rh-ball-inequality", "p": 1.0, "alpha": 0.5}


def test_quadrature_block_reads_resolution_not_tol():
    """``quadrature.tol`` is read by no command (only the scalar
    ``apply_T`` checks its convergence with it), so a config that carries
    it loads whatever it holds; a negative tol exited 4."""
    cfg = parse_config(_base_config(quadrature={"resolution": 256, "tol": 1e-5}))
    assert cfg.quadrature == QuadratureScheme(resolution=256, tol=1e-6)
    for tol in (-1.0, "fine"):
        assert parse_config(_base_config(quadrature={"tol": tol})).quadrature == \
            QuadratureScheme()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_cli_config_error_exit_code(tmp_path):
    bad = _write(tmp_path, "bad.json", _base_config(weight={"kind": "power",
                                                            "exponent": -2.0}))
    assert main(["verify", "--config", bad]) == 4


def test_cli_weights_classify(tmp_path, capsys):
    cfg = _write(tmp_path, "w.json", _base_config(
        classify={"classes": [{"kind": "Ap", "p": 2.0}], "critical_indices": True,
                  "tol": 0.02}))
    code = main(["weights", "classify", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classes"][0]["verdict"] == "finite"
    assert payload["critical_indices"] == {"q_critical": 1.5, "rh_critical": "inf"}
    assert (tmp_path / "out" / "weights-classify.json").exists()


def test_cli_sweep_anchor_values(tmp_path):
    out = tmp_path / "out"
    code = main(["operator", "sweep", "--config",
                 os.path.join(CONFIG_DIR, "sweep-riesz.json"), "--out", str(out)])
    assert code == 0
    with open(out / "riesz-half-indicator.csv") as fh:
        rows = list(csv.DictReader(fh))
    at_zero = [r for r in rows if abs(float(r["x0"])) < 1e-12][0]
    assert float(at_zero["value"]) == pytest.approx(4.0, rel=1e-3)

    code = main(["operator", "sweep", "--config",
                 os.path.join(CONFIG_DIR, "sweep-t02.json"), "--out", str(out)])
    assert code == 0
    with open(out / "t02-shifted-indicator.csv") as fh:
        rows = list(csv.DictReader(fh))
    at_zero = [r for r in rows if abs(float(r["x0"])) < 1e-12][0]
    assert float(at_zero["value"]) == pytest.approx(math.log(2.0), rel=1e-3)


def test_cli_sweep_disk_matches_elliptic_closed_form(tmp_path):
    """The bundled 2-D sweep: the Riesz potential with alpha = 1 of the unit
    disk is 4 E(rho^2) at distance rho <= 1 from its center and
    4 rho (E(m) - (1 - m) K(m)), m = 1 / rho^2, outside (parameter m)."""
    out = tmp_path / "out"
    code = main(["operator", "sweep", "--config",
                 os.path.join(CONFIG_DIR, "sweep-disk.json"), "--out", str(out)])
    assert code == 0
    with open(out / "riesz-one-disk.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 41
    with mpmath.workdps(30):
        for row in rows:
            rho = abs(mpmath.mpf(row["x0"]))
            if rho <= 1:
                exact = 4 * mpmath.ellipe(rho ** 2)
            else:
                m = 1 / rho ** 2
                exact = 4 * rho * (mpmath.ellipe(m) - (1 - m) * mpmath.ellipk(m))
            assert abs(float(row["value"]) - exact) <= 1e-12 * exact


def _newtonian_disk(rho, radius):
    """Integral of 1/|x - y| over a disk at in-plane distance rho from its
    centre (as perfbench's ``newtonian_disk``), on mpf arguments: the caller
    sets a precision that outlasts the cancellation in E(m) - (1 - m) K(m)."""
    if rho <= radius:
        return 4 * radius * mpmath.ellipe((rho / radius) ** 2)
    m = (radius / rho) ** 2
    return 4 * rho * (mpmath.ellipe(m) - (1 - m) * mpmath.ellipk(m))


@pytest.mark.parametrize("lam", [1e-200, 1e-170, 1.0, 1e200])
def test_cli_sweep_disk_under_a_scalar_matrix(tmp_path, lam):
    """Under lambda I the alpha = 1 potential of the unit disk is
    lambda^-1 N(|x| / lambda), N the Newtonian disk potential.  The
    similarity scale comes from the closed-form singular values: A^T A
    overflowed at 1e200 (every value read 0) and underflowed at 1e-170 and
    1e-200 (ZeroDivisionError, exit 1)."""
    with open(os.path.join(CONFIG_DIR, "sweep-disk.json")) as fh:
        raw = json.load(fh)
    raw["matrices"] = [[[lam, 0.0], [0.0, lam]]]
    raw["sweeps"][0]["points"] = 13
    cfg = _write(tmp_path, "disk.json", raw)
    out = tmp_path / "out"
    assert main(["operator", "sweep", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "riesz-one-disk.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 13
    with mpmath.workdps(450):
        for row in rows:
            exact = _newtonian_disk(abs(mpmath.mpf(row["x0"])) / lam, 1) / lam
            assert abs(float(row["value"]) - exact) <= 1e-12 * exact


def test_cli_ill_conditioned_matrix_exits_4(tmp_path, capsys):
    """The closed-form condition number keeps the cap's message."""
    with open(os.path.join(CONFIG_DIR, "sweep-disk.json")) as fh:
        raw = json.load(fh)
    raw["matrices"] = [[[1.0, 1.0], [1.0, 1.000000001]]]
    cfg = _write(tmp_path, "disk.json", raw)
    assert main(["operator", "sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    error = json.loads(capsys.readouterr().err)
    assert error["path"] == "matrices"
    assert "condition number 4.000e+09 exceeds cap 1.0e+08" in error["message"]


def test_cli_sweep_empty_selection(tmp_path):
    cfg = _write(tmp_path, "empty.json", _base_config(sweeps=[]))
    out = tmp_path / "nothing"
    assert main(["operator", "sweep", "--config", cfg, "--out", str(out)]) == 0
    assert not out.exists()


def test_cli_atoms_gen_and_validate(tmp_path):
    cfg = _write(tmp_path, "atoms.json", _base_config(
        atom={"p": 1.0, "p0": 2.0, "d": 0},
        campaign={"count": 6, "seed": 5, "centers": [[0.0]], "radii": [0.5, 1.0, 2.0, 4.0]}))
    out = str(tmp_path / "out")
    assert main(["atoms", "gen", "--config", cfg, "--out", out]) == 0
    manifest = os.path.join(out, "atoms.jsonl")
    assert os.path.exists(manifest)
    assert main(["atoms", "validate", "--config", cfg, "--out", out,
                 "--manifest", manifest]) == 0
    report = json.load(open(os.path.join(out, "atoms-validate.json")))
    assert report["report"]["all_passed"]


@pytest.mark.parametrize("d", [8, 12, MAX_DEGREE])
@pytest.mark.parametrize("campaign", [{}, {"count": 24, "centers": [[1e3], [-2e3]],
                                           "radii": [1.0, 2.0]}], ids=["bundled", "far"])
def test_cli_atoms_validate_up_to_the_degree_cap(tmp_path, d, campaign):
    """`atoms gen` and `atoms validate` exit 0 with every atom passing at
    degrees 8, 12 and ``config.MAX_DEGREE``, on atoms-campaign's balls and
    on balls with |c| / r = 1e3.  With the monomial Gram projection and raw
    moments about the origin, 1 of 100 atoms failed at degree 8."""
    raw = _atoms_campaign(**campaign)
    raw["atom"]["d"] = d
    cfg = _write(tmp_path, "atoms.json", raw)
    out = str(tmp_path / "out")
    assert main(["atoms", "gen", "--config", cfg, "--out", out]) == 0
    assert main(["atoms", "validate", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "atoms-validate.json")) as fh:
        assert json.load(fh)["report"]["all_passed"]


def test_cli_plane_atoms_validate_at_a_large_p0(tmp_path):
    """Plane atoms at p0 = 1000 are generated and validated with exit 0:
    the cells raise |a| over its largest sample to p0.  Raised as is, |a| <=
    0.3 underflowed, and `atoms validate` read norm 0 and exited 2."""
    cfg = _write(tmp_path, "atoms.json", _base_config(
        dimension=2, weight={"kind": "power", "exponent": 0.5},
        atom={"p": 1.0, "p0": 1000.0, "d": 0}, campaign={"count": 2, "seed": 7}))
    out = str(tmp_path / "out")
    assert main(["atoms", "gen", "--config", cfg, "--out", out]) == 0
    assert main(["atoms", "validate", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "atoms-validate.json")) as fh:
        assert all(r["norm"] > 0.0 for r in json.load(fh)["report"]["results"])


def test_cli_plane_atoms_take_the_default_centres(tmp_path):
    """Without a campaign block the default centres 0, 1 and -2 lie on the
    first axis, in the plane as on the line."""
    cfg = _write(tmp_path, "atoms.json", _base_config(
        dimension=2, atom={"p": 1.0, "p0": 2.0, "d": 0}))
    out = str(tmp_path / "out")
    assert main(["atoms", "gen", "--config", cfg, "--out", out]) == 0
    assert main(["atoms", "validate", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "atoms.jsonl")) as fh:
        centers = {tuple(json.loads(line)["ball"]["center"]) for line in fh}
    assert centers == {(0.0, 0.0), (1.0, 0.0), (-2.0, 0.0)}


def test_cli_verify_fast_checks_and_determinism(tmp_path):
    cfg = _write(tmp_path, "checks.json", _base_config(
        checks=[
            {"check": "rh-ball-inequality", "p": 1.0, "alpha": 0.5},
            {"check": "maximal-inequality", "p": 2.0},
        ],
        weight={"kind": "power", "exponent": -0.125}))
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["verify", "--config", cfg, "--out", out1]) == 0
    assert main(["verify", "--config", cfg, "--out", out2]) == 0
    for name in sorted(os.listdir(out1)):
        if not name.endswith(".json"):
            continue
        a = json.load(open(os.path.join(out1, name)))
        b = json.load(open(os.path.join(out2, name)))
        a.pop("timestamp"), b.pop("timestamp")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True), name


def test_cli_verify_hypothesis_exit_code(tmp_path):
    raw = json.load(open(os.path.join(CONFIG_DIR, "ta-worked.json")))
    raw["exponents"] = {"alpha": 0.9, "alphas": [0.05, 0.05]}
    raw["campaign"]["count"] = 2
    cfg = _write(tmp_path, "badta.json", raw)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg, "--out", out]) == 3
    reports = [json.load(open(os.path.join(out, f))) for f in os.listdir(out)
               if f.endswith(".json")]
    assert any(r["report"].get("verdict") == "hypothesis-failed" for r in reports)


def test_cli_seed_override_changes_campaign(tmp_path):
    cfg = _write(tmp_path, "atoms.json", _base_config(
        atom={"p": 1.0, "p0": 2.0, "d": 0},
        campaign={"count": 2, "seed": 5, "centers": [[0.0]], "radii": [0.5, 1.0, 2.0, 4.0]}))
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["atoms", "gen", "--config", cfg, "--out", out1]) == 0
    assert main(["atoms", "gen", "--config", cfg, "--out", out2, "--seed", "6"]) == 0
    a = open(os.path.join(out1, "atoms.jsonl")).read()
    b = open(os.path.join(out2, "atoms.jsonl")).read()
    assert a != b


def _python(*args, check=False, timeout=300):
    """Run the interpreter on ``args`` with this checkout's src on the path."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, check=check,
                          capture_output=True, text=True, timeout=timeout)


def test_cli_import_defers_scipy_integrate():
    """Nothing under src imports scipy.integrate (quad is a test oracle only)."""
    code = "import sys, rieszkit.cli; print('scipy.integrate' in sys.modules)"
    out = _python("-c", code, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_defers_scipy_special():
    """Nothing under src imports scipy.special (radial primitives need no
    special function)."""
    code = "import sys, rieszkit.cli; print('scipy.special' in sys.modules)"
    out = _python("-c", code, check=True)
    assert out.stdout.strip() == "False"


_GRID = {"lo": [-1.0], "hi": [1.0], "shape": [2]}
#: a tabulated weight on [-10, 10]: the default ball family and a campaign's
#: truncated line both reach beyond it
_WIDE_TABULATED = {"kind": "tabulated", "grid": {"lo": [-10.0], "hi": [10.0], "shape": [4]},
                   "values": [1.0, 2.0, 3.0, 4.0]}


def _bundled(name, **campaign):
    """The bundled config ``name`` with ``campaign`` fields replaced."""
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        raw = json.load(fh)
    raw["campaign"].update(campaign)
    return raw


def _atoms_campaign(**campaign):
    return _bundled("atoms-campaign.json", **campaign)


def _theorem_config(check, alpha, **campaign):
    return _base_config(matrices=[[[1.0]], [[-1.0]]], exponents={"alpha": alpha},
                        atom={"p": 1.0, "p0": 2.0}, campaign=campaign,
                        checks=[{"check": check}])


def _shifted(a):
    """The weight |x - 1|^a."""
    return {"kind": "product_power", "factors": [[a, [1.0]]]}


def _failed_audit_config(raw, check):
    """``raw`` running ``check`` and then a maximal-inequality check."""
    return {**raw, "checks": [check, {"check": "maximal-inequality"}]}


@pytest.mark.parametrize("raw, item", [
    (_failed_audit_config(_base_config(weight={"kind": "power", "exponent": -0.75}),
                          {"check": "rh-ball-inequality", "p": 1.0, "alpha": 0.75}),
     "w^p in RH_4"),
    (_failed_audit_config(_bundled("ta-worked.json", count=2)
                          | {"weight": {"kind": "power", "exponent": 0.25}},
                          {"check": "theorem-ta"}),
     "w^{n/((n-alpha)s)} in A_1"),
    (_failed_audit_config(_base_config(weight={"kind": "power", "exponent": 1.5}),
                          {"check": "maximal-inequality", "p": 2.0}),
     "w in A_2"),
    (_failed_audit_config(_bundled("ta-worked.json", s=1.5, count=2),
                          {"check": "theorem-ta"}),
     "s in (0, 1)"),
    (_failed_audit_config(_bundled("ta-worked.json", count=2)
                          | {"weight": {"kind": "power", "exponent": -0.995}},
                          {"check": "theorem-ta"}),
     "w^{n/((n-alpha)s)} in A_1"),
    (_failed_audit_config(_theorem_config("theorem-thm1", 0.0, count=2)
                          | {"weight": {"kind": "power", "exponent": -0.25},
                             "atom": {"p": 1.0, "p0": 1.3332}},
                          {"check": "theorem-thm1"}),
     "p0 above the atomic threshold"),
    (_failed_audit_config(_theorem_config("theorem-thm1", 0.0, count=2)
                          | {"weight": _shifted(-0.25)}, {"check": "theorem-thm1"}),
     "w(A_j x) <= C w(x)"),
    (_failed_audit_config(_theorem_config("theorem-thm1", 0.0, count=2)
                          | {"weight": _shifted(-0.25), "matrices": [[[1.0]], [[2.0]]]},
                          {"check": "theorem-thm1"}),
     "w(A_j x) <= C w(x)"),
    (_failed_audit_config(_bundled("ta-worked.json", count=2) | {"weight": _shifted(-0.125)},
                          {"check": "theorem-ta"}),
     "w(A_j x) <= C w(x)"),
    (_failed_audit_config(_theorem_config("theorem-thm1", 0.0, count=2)
                          | {"weight": {"kind": "product_power",
                                        "factors": [[-0.45, [0.0]], [-0.45, [1e-14]]]}},
                          {"check": "theorem-thm1"}),
     "w(A_j x) <= C w(x)"),
], ids=["rh-ball", "ta-a1-vanishes", "maximal-a2", "ta-s", "ta-rh-bracket-at-1",
        "thm1-p0-below-threshold", "thm1-compatibility-reflection",
        "thm1-compatibility-dilation", "ta-compatibility-reflection",
        "thm1-compatibility-gap"])
def test_cli_failed_audit_exits_3_and_ends_the_run(tmp_path, raw, item):
    """A failed hypothesis audit exits 3 from every check kind. The run
    writes one hypothesis-failed report that names the audit and ends there,
    so the check listed after it writes no report. |x|^{3/2} with p = 2 is
    outside A_2 (its numerator, M chi_B ~ |x|^{-1} squared against
    |x|^{3/2}, diverges at infinity). The theorem-ta audit of
    w^{n/((n-alpha)s)} in A_1 fails for |x|^{1/4}, which vanishes at 0, and
    for |x|^{-0.995}, whose power is no weight. The thm1 campaign's
    p0 = 1.3332 lies below the 4/3 of |x|^{-1/4}. |x - 1|^{-1/4} under the
    matrices +-1 or {1, 2}, |x - 1|^{-1/8} under +-1, and
    |x|^{-0.45} |x - 1e-14|^{-0.45} under +-1 have unbounded ratios
    w(A_j x)/w(x) (at x = -1, 1/2, -1 and -1e-14)."""
    cfg = _write(tmp_path, "audit.json", raw)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
    assert sorted(os.listdir(out)) == [f"00-{raw['checks'][0]['check']}.json"]
    report = json.loads(next(out.iterdir()).read_text())["report"]
    assert report["verdict"] == "hypothesis-failed" and report["failed_item"] == item


@pytest.mark.parametrize("command, raw, field", [
    (["weights", "classify"],
     _base_config(classify={"classes": [{"kind": "Ap"}], "critical_indices": False}),
     "classify.classes[0].p"),
    (["weights", "classify"],
     _base_config(classify={"classes": [{"kind": "A1"}, {"kind": "RH", "s": 1.0}],
                            "critical_indices": False}),
     "classify.classes[1].s"),
    (["verify"],
     _base_config(dimension=2, weight={"kind": "power", "exponent": 0.5},
                  checks=[{"check": "maximal-inequality", "p": 2.0}]),
     "checks[0].check"),
    (["verify"],
     _base_config(checks=[{"check": "maximal-inequality"},
                          {"check": "rh-ball-inequality", "p": 2.0, "alpha": 0.5}]),
     "checks[1].p"),
    (["verify"],
     _base_config(checks=[{"check": "maximal-inequality", "test_balls": [{"center": [0.0]}]}]),
     "checks[0].test_balls[0].radius"),
    (["verify"],
     _base_config(checks=[{"check": "maximal-inequality",
                           "test_balls": [{"center": [0.0, 1.0], "radius": 1.0}]}]),
     "checks[0].test_balls[0].center"),
    (["verify"],
     _base_config(checks=[{"check": "maximal-inequality", "p": 0.5}]),
     "checks[0].p"),
    (["verify"], _base_config(weight={"kind": "power", "exponent": 0.0},
                              checks=[{"check": "maximal-inequality", "p": 1.0}]),
     "checks[0].p"),
    (["verify"], _base_config(weight={"kind": "power", "exponent": 0.0},
                              checks=[{"check": "maximal-inequality", "p": 1.0,
                                       "alpha": 0.5}]),
     "checks[0].p"),
    (["verify"],
     _base_config(checks=[{"check": "maximal-inequality", "p": 2.0, "alpha": 1.0}]),
     "checks[0].alpha"),
    (["verify"],
     _base_config(checks=[{"check": "maximal-inequality", "p": 2.0, "alpha": 0.75}]),
     "checks[0].p"),
    (["verify"], _base_config(weight={"kind": "tabulated", "grid": _GRID, "values": [1.0, 2.0]},
                              checks=[{"check": "maximal-inequality"}]), "weight.kind"),
    (["verify"],
     _base_config(checks=[{"check": "maximal-inequality",
                           "test_balls": [{"center": [0.0], "radius": 1.0},
                                          {"center": [1.0], "radius": 1e-17}]}]),
     "checks[0].test_balls[1].radius"),
    (["verify"],
     _base_config(checks=[{"check": "maximal-inequality",
                           "test_balls": [{"center": [0.0], "radius": 1e308}]}]),
     "checks[0].test_balls[0].radius"),
    (["weights", "classify"],
     _base_config(quadrature={"policy": "exclude_refine"},
                  classify={"classes": [{"kind": "A1"}], "critical_indices": False}),
     "quadrature.policy"),
    (["weights", "classify"],
     _base_config(quadrature={"resolution": 64, "patch_cells": 4},
                  classify={"classes": [{"kind": "A1"}], "critical_indices": False}),
     "quadrature.patch_cells"),
    (["verify"], _base_config(weight={"kind": "power", "exponent": 0.5, "scale": 0.0}),
     "weight.scale"),
    (["verify"], _base_config(weight={"kind": "log_example", "scale": -1.0}), "weight.scale"),
    (["verify"], _base_config(weight={"kind": "tabulated", "grid": _GRID,
                                      "values": [1.0, -2.0]}), "weight.values"),
    (["verify"], _base_config(weight={"kind": "tabulated", "grid": _GRID,
                                      "values": [1.0, 0.0]}), "weight.values"),
    (["verify"], _base_config(weight={"kind": "tabulated", "grid": {**_GRID, "hi": [-1.0]},
                                      "values": [1.0, 2.0]}), "weight.grid.hi"),
    (["verify"], _base_config(weight={"kind": "product_power", "factors": [["a", [0.0]]]}),
     "weight.factors[0][0]"),
    (["weights", "classify"],
     _base_config(weight={"kind": "product_power", "factors": [[-0.6, [0]], [-0.6, [0]]]},
                  classify={"classes": [{"kind": "A1"}], "critical_indices": False}),
     "weight.factors"),
    (["verify"], _base_config(weight={"kind": "power", "exponent": 0.5, "dimension": 2}),
     "weight.dimension"),
    (["verify"], _theorem_config("theorem-thm1", 0.0, count=2, seed=-1), "campaign.seed"),
    (["verify"], _theorem_config("theorem-thm1", 0.0, count=10**30), "campaign.count"),
    (["verify", "--seed", "-1"], _theorem_config("theorem-thm1", 0.0, count=2), "--seed"),
    (["verify"], {**_theorem_config("theorem-thm1", 0.0, count=2), "seed": -1}, "seed"),
    (["verify"], _theorem_config("theorem-thm1", 0.5, count=2), "exponents.alpha"),
    (["verify"], _theorem_config("theorem-ta", 0.0, count=2), "exponents.alpha"),
    (["verify"], _base_config(matrices=[[[1.0]]], exponents={"alpha": 0.5},
                              checks=[{"check": "pointwise-atom-bound"}]),
     "checks[0].check"),
    (["verify"], {**_theorem_config("theorem-thm1", 0.0, count=2, centers=[[0.0, 0.0]]),
                  "dimension": 2, "matrices": [[[1.0, 0.0], [0.0, 1.0]],
                                               [[-1.0, 0.0], [0.0, -1.0]]]},
     "checks[0].check"),
    (["verify"], _base_config(dimension=2, matrices=[[[1.0, 0.0], [0.0, 1.0]],
                                                     [[-1.0, 0.0], [0.0, -1.0]]],
                              exponents={"alpha": 0.5}, atom={"p": 1.0, "p0": 2.0, "d": 0},
                              checks=[{"check": "pointwise-atom-bound",
                                       "center": [0.3, 0.0]}]),
     "checks[0].check"),
    (["operator", "sweep"],
     _base_config(sweeps=[{"function": {"kind": "indicator", "center": [0.0], "radius": 1.0},
                           "x_min": -1.0, "x_max": 1.0, "points": 10**30}]),
     "sweeps[0].points"),
    (["verify"], _theorem_config("theorem-thm1", 0.0, count=2, outer_octaves=10**30),
     "campaign.outer_octaves"),
    (["verify"], _theorem_config("theorem-thm1", 0.0, count=2, inner_resolution=10**30),
     "campaign.inner_resolution"),
    (["verify"], _theorem_config("theorem-thm1", 0.0, count=2, outer_resolution=0),
     "campaign.outer_resolution"),
    (["verify"], {**_theorem_config("theorem-thm1", 0.0, count=2),
                  "quadrature": {"resolution": 10**30}}, "quadrature.resolution"),
    (["atoms", "gen"], _atoms_campaign(radii=[1e300, 1.0]), "campaign.radii[0]"),
    (["atoms", "validate"], _atoms_campaign(radii=[1e300, 1.0]), "campaign.radii[0]"),
    (["atoms", "gen"], _atoms_campaign(centers=[[0.0], [-1e300]]), "campaign.centers[1]"),
    (["verify"], _base_config(checks=[{"check": "rh-ball-inequality", "p": 1e-300}]),
     "checks[0].p"),
    (["verify"], _base_config(checks=[{"check": "rh-ball-inequality", "alpha": 1e-300}]),
     "checks[0].alpha"),
    (["atoms", "gen"], {**_atoms_campaign(), "atom": {"p": 1.0, "p0": 2.0, "d": -1}}, "atom.d"),
    (["atoms", "gen"], {**_atoms_campaign(), "atom": {"p": 1.0, "p0": 2.0, "d": 2**70}},
     "atom.d"),
    (["atoms", "gen"], {**_atoms_campaign(),
                        "atom": {"p": 1.0, "p0": 2.0, "d": MAX_DEGREE + 1}}, "atom.d"),
    (["atoms", "gen"], {**_atoms_campaign(), "atom": {"p": 1.0, "p0": 2.0, "d": 30}}, "atom.d"),
    (["atoms", "gen"], {**_atoms_campaign(),
                        "weight": {"kind": "power", "exponent": MAX_DEGREE + 1.5}}, "atom.p"),
    (["verify"], {**_theorem_config("theorem-thm1", 0.0, count=2),
                  "atom": {"p": 1e-308, "p0": 2.0}}, "atom.p"),
    (["verify"], _base_config(checks=[{"check": "critical-index-chain", "p": 0.5}]),
     "checks[0].check"),
    (["verify"], _base_config(weight=_WIDE_TABULATED,
                              checks=[{"check": "rh-ball-inequality", "p": 1.0,
                                       "alpha": 0.5}]), "weight.grid"),
    (["weights", "classify"], _base_config(weight=_WIDE_TABULATED), "weight.grid"),
    (["verify"], _theorem_config("theorem-thm1", 0.0, count=2, radii=[0.25, 1.0, 4.0])
     | {"weight": _WIDE_TABULATED}, "weight.grid"),
    (["verify", "--jobs", "2"],
     _theorem_config("theorem-thm1", 0.0, count=2, radii=[0.25, 1.0, 4.0])
     | {"weight": _WIDE_TABULATED}, "weight.grid"),
    (["verify", "--jobs", "0"], _theorem_config("theorem-thm1", 0.0, count=2), "--jobs"),
    (["verify", "--jobs", "-1"], _theorem_config("theorem-thm1", 0.0, count=2), "--jobs"),
], ids=["ap-without-p", "rh-s-1", "maximal-2d", "rh-ball-p-above-n-over-alpha",
        "maximal-ball-without-radius", "maximal-ball-2d-center", "maximal-p-below-1",
        "maximal-p-1", "maximal-p-1-alpha", "maximal-alpha-1", "maximal-p-above-1-over-alpha",
        "maximal-tabulated", "maximal-ball-ends-round-to-centre", "maximal-ball-length-overflows",
        "quadrature-policy", "quadrature-patch-cells",
        "weight-power-scale-0", "weight-log-scale-negative", "weight-tabulated-negative-value",
        "weight-tabulated-zero-value", "weight-tabulated-hi-below-lo",
        "weight-product-exponent-string", "weight-product-coincident-not-integrable",
        "weight-dimension-mismatch",
        "campaign-seed-negative", "campaign-count-over-budget", "cli-seed-negative",
        "root-seed-negative", "thm1-positive-alpha", "ta-zero-alpha",
        "pointwise-without-atom", "thm1-2d", "pointwise-2d",
        "sweep-points-over-budget", "outer-octaves-over-budget",
        "inner-resolution-over-budget", "outer-resolution-0", "resolution-over-budget",
        "atoms-gen-radius-overflows", "atoms-validate-radius-overflows",
        "atoms-gen-center-overflows", "rh-ball-p-tiny", "rh-ball-alpha-tiny",
        "atom-d-negative", "atom-d-overflows", "atom-d-over-budget", "atom-d-30",
        "atom-p-derives-degree-over-budget", "thm1-p-tiny", "chain-kind-gone",
        "rh-ball-outside-grid", "classify-outside-grid", "thm1-outside-grid",
        "thm1-outside-grid-in-a-worker", "cli-jobs-0",
        "cli-jobs-negative"])
def test_cli_malformed_parameters_exit_4(tmp_path, command, raw, field):
    """Malformed weight blocks, class and check parameters, negative seeds
    and fewer than one job, a tabulated weight whose grid does not cover the
    balls or the line a run reads (it exited 2, "point outside the tabulated
    grid domain"; raised in a campaign's worker process it reaches the CLI
    intact),
    work beyond the budget, campaign balls whose squared distances overflow,
    a maximal check at p = 1, where the maximal operators have only the
    weak-type bound (the unit weight's ratio is infinite), on a tabulated
    weight (the check needs the weight beyond its grid) or on a test ball
    whose ends round to its centre (B(1, 1e-17)) or lie an infinite length
    apart, an RH ball check whose q/p rounds to 1, a theorem
    check whose order does not match the exponents or that runs off the
    line, a pointwise
    check without its atom block or off the line and a moment degree (given,
    or derived from atom.p and the weight) past ``config.MAX_DEGREE`` are
    config errors (exit 4)
    naming the field, not tracebacks (exit 1), failed checks (exit 2) or
    runs without end."""
    cfg = _write(tmp_path, "bad.json", raw)
    out = _python("-m", "rieszkit.cli", *command, "--config", cfg,
                  "--out", str(tmp_path / "out"))
    assert out.returncode == 4, out.stderr
    error = json.loads(out.stderr.strip().splitlines()[-1])
    assert error["error"] == "config" and error["path"] == field


@pytest.mark.parametrize("exponent, rh2", [(80.0, 15.714023045625309),
                                           (300.0, 31.318359981544646),
                                           (1e10, None), (1e15, None), (1e20, None),
                                           (1e30, None)])
def test_product_weight_with_a_high_power_classifies(tmp_path, exponent, rh2):
    """|x|^e |x - 1|^-0.4 at e = 80 and 300 classifies with exit 0 and a
    finite RH_2.  The Gauss-Jacobi rule at the factor's centre forms its
    weights in logarithms: from Gamma functions outside them, RH_2 read
    NaN ("diverging") at 80 and the run raised OverflowError (exit 1) at
    300.  Past ``config.MAX_FACTOR_EXPONENT`` the config is refused (exit 4
    at the exponent): from 1e10 on the rule's log-sum was NaN and the run
    exited 1 with "math domain error"."""
    with open(os.path.join(CONFIG_DIR, "weights-product.json")) as fh:
        raw = json.load(fh)
    raw["weight"]["factors"][0][0] = exponent
    out = _python("-m", "rieszkit.cli", "weights", "classify",
                  "--config", _write(tmp_path, "product.json", raw), "--out", str(tmp_path))
    if rh2 is None:
        assert out.returncode == 4, out.stderr
        assert json.loads(out.stderr.strip().splitlines()[-1])["path"] == "weight.factors[0][0]"
        return
    assert out.returncode == 0, out.stderr
    with open(tmp_path / "weights-classify.json") as fh:
        rh = json.load(fh)["report"]["classes"][3]
    assert rh["verdict"] == "finite" and rh["constant"] == pytest.approx(rh2, rel=1e-12)


@pytest.mark.parametrize("exponent", [None, 64.0, 1000.0])
def test_plane_product_weight_past_the_disk_rule_exits_4(tmp_path, exponent):
    """The bundled plane product classifies with exit 0; with its second
    exponent at 64 or 1000 the disk rule cannot resolve the means' powers
    (``plane_integral.MAX_POWER``) and refuses at ``weight.factors`` (exit
    4), where it read RH_2 = 49.23 at 1000 and 1249.5 at 1e5 with exit 0."""
    with open(os.path.join(CONFIG_DIR, "weights-product-plane.json")) as fh:
        raw = json.load(fh)
    if exponent is not None:
        raw["weight"]["factors"][1][0] = exponent
    out = _python("-m", "rieszkit.cli", "weights", "classify",
                  "--config", _write(tmp_path, "plane.json", raw), "--out", str(tmp_path))
    if exponent is None:
        assert out.returncode == 0, out.stderr
        return
    assert out.returncode == 4, out.stderr
    error = json.loads(out.stderr.strip().splitlines()[-1])
    assert error["error"] == "config" and error["path"] == "weight.factors"


@pytest.mark.parametrize("p0", [1.0001, 1000.0, 1e30, 1e300])
def test_every_accepted_p0_keeps_the_exit_contract(tmp_path, capsys, p0):
    """`atoms gen` + `atoms validate` and the pointwise check at atom.p0
    from just above 1 to 1e300 either exit 0 with every atom validated or
    refuse p0 (exit 4 at atom.p0, past ``config.MAX_P0``).  When |a|^p0
    overflowed the cells, every atom was scaled to 0: at 1e30 `atoms gen`
    exited 2 with "zero norm" and the pointwise check failed with worst 0."""
    from rieszkit.config import MAX_P0

    atoms = {**_atoms_campaign(count=12), "atom": {"p": 1.0, "p0": p0}}
    with open(os.path.join(CONFIG_DIR, "pointwise-off-centre.json")) as fh:
        pointwise = json.load(fh)
    pointwise["atom"]["p0"] = p0
    out = str(tmp_path / "out")
    codes = [main([*command, "--config", _write(tmp_path, f"{i}.json", raw), "--out", out])
             for i, (command, raw) in enumerate([(["atoms", "gen"], atoms),
                                                 (["atoms", "validate"], atoms),
                                                 (["verify"], pointwise)])]
    if p0 > MAX_P0:
        assert codes == [4, 4, 4]
        errors = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert {e["path"] for e in errors} == {"atom.p0"}
    else:
        assert codes == [0, 0, 0]
        with open(os.path.join(out, "atoms-validate.json")) as fh:
            report = json.load(fh)["report"]
        assert report["all_passed"] and report["count"] == 12
        assert all(abs(row["size_margin"]) <= 1e-12 for row in report["results"])


def _check_with(**fields):
    return _base_config(weight={"kind": "power", "exponent": -0.25},
                        checks=[{"check": "rh-ball-inequality", "p": 0.5, **fields}])


@pytest.mark.parametrize("command, raw", [
    (["weights", "classify"],
     _base_config(classify={"classes": [{"kind": "A1"}], "critical_indices": True,
                            "tol": 2e-16})),
    (["verify"], _check_with(tol=2e-16)),
    (["weights", "classify"],
     _base_config(classify={"classes": [{"kind": "A1"}], "critical_indices": False,
                            "tol": 1e-308})),
    (["verify"], _check_with(tol=1e-308)),
    (["verify"], _check_with(tol="fine")),
], ids=["classify", "check", "classify-tol-below-ulp", "check-tol-below-ulp",
        "check-tol-not-a-number"])
def test_cli_critical_index_fields_are_not_read(tmp_path, command, raw):
    """The critical indices are closed forms, so no tolerance is read:
    configs that still carry ``classify.tol``, ``classify.critical_indices``
    or ``checks[i].tol`` load and run whatever those hold (they exited 4
    at a tolerance with 1 + tol == 1 or one that was not a number), and
    classify always reports the indices."""
    cfg = _write(tmp_path, "tol.json", raw)
    out_dir = tmp_path / "out"
    out = _python("-m", "rieszkit.cli", *command, "--config", cfg, "--out", str(out_dir))
    assert out.returncode == 0, out.stderr
    if command[0] == "weights":
        report = json.loads((out_dir / "weights-classify.json").read_text())["report"]
        assert report["critical_indices"] == {"q_critical": 1.5, "rh_critical": "inf"}
    else:
        report = json.loads((out_dir / "00-rh-ball-inequality.json").read_text())["report"]
        assert report["verdict"] == "pass" and "tol" not in report["sample"]


def test_cli_disk_sweep_past_float_range_writes_inf(tmp_path):
    """T of a disk of radius 1e308 is about 2 pi 1e308, past the float
    range: the similarity route returns +inf, without an overflow warning,
    and the sweep writes ``inf``."""
    with open(os.path.join(CONFIG_DIR, "sweep-disk.json")) as fh:
        raw = json.load(fh)
    raw["sweeps"][0]["function"]["radius"] = 1e308
    cfg = _write(tmp_path, "disk.json", raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["operator", "sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "riesz-one-disk.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 41 and all(row["value"] == "inf" for row in rows)


@pytest.mark.parametrize("entry, code", [(1e300, 4), (1e150, 0)])
def test_cli_huge_matrix_campaign(tmp_path, capsys, entry, code):
    """A matrix of norm 1e300 stretches the campaign's truncated line past
    sqrt(float max), where squared distances overflow: the run is refused at
    ``campaign`` (exit 4) before any audit, not reported as a failed theorem.
    At 1e150 the line reaches about 4e153 and the campaign still passes."""
    with open(os.path.join(CONFIG_DIR, "corollary.json")) as fh:
        raw = json.load(fh)
    raw["matrices"][0][0][0] = entry
    cfg = _write(tmp_path, "huge.json", raw)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == code
    if code == 4:
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "config" and error["path"] == "campaign"
        assert not (tmp_path / "out").exists()


def test_cli_atoms_validate_bad_manifest_exit_4(tmp_path):
    """A manifest record without ball.radius, a record whose product weight
    has factors at one centre that are not integrable together, and a
    manifest that does not exist, are config errors (exit 4) naming the line
    and field."""
    from rieszkit import AtomParams, Ball, PowerWeight, construct_atom, write_atom_manifest

    params = AtomParams(1.0, 2.0, 0, PowerWeight(0.5), 1)
    manifest = tmp_path / "atoms.jsonl"
    write_atom_manifest([construct_atom(Ball([0.0], r), params, 1) for r in (0.5, 1.0)],
                        manifest)
    lines = manifest.read_text().splitlines()
    record = json.loads(lines[1])
    del record["ball"]["radius"]
    manifest.write_text(lines[0] + "\n" + json.dumps(record) + "\n")
    record = json.loads(lines[0])
    record["params"]["weight"] = {"kind": "product_power",
                                  "factors": [[-0.6, [0.0]], [-0.6, [0.0]]]}
    coincident = tmp_path / "coincident.jsonl"
    coincident.write_text(json.dumps(record) + "\n")
    cfg = _write(tmp_path, "atoms.json", _base_config(atom={"p": 1.0, "p0": 2.0, "d": 0}))
    for path, field in ((manifest, "manifest line 2.ball.radius"),
                        (coincident, "manifest line 1.params.weight.factors"),
                        (tmp_path / "missing.jsonl", "(manifest)")):
        out = _python("-m", "rieszkit.cli", "atoms", "validate", "--config", cfg,
                      "--out", str(tmp_path / "out"), "--manifest", str(path))
        assert out.returncode == 4, out.stderr
        error = json.loads(out.stderr.strip().splitlines()[-1])
        assert error["error"] == "config" and error["path"] == field


_CAPPED = _base_config(weight={"kind": "power", "exponent": 260.0},
                       matrices=[[[1.0]], [[-1.0]]], exponents={"alpha": 0.0},
                       atom={"p": 1.0, "p0": 2.0}, campaign={"count": 2})


@pytest.mark.parametrize("command, extra, code", [
    (["weights", "classify"], {"classify": {"classes": [{"kind": "A1"}],
                                            "critical_indices": True}}, 0),
    (["verify"], {"checks": [{"check": "theorem-thm1"}]}, 3),
    (["verify"], {"checks": [{"check": "pointwise-atom-bound"}]}, 3),
    (["atoms", "gen"], {}, 3),
], ids=["classify", "thm1", "pointwise", "atoms-gen"])
def test_cli_weight_above_ap_cap(tmp_path, command, extra, code):
    """|x|^260 is in no A_q up to the cap 256 (``weights.AP_CAP``): classify
    reports q_critical = inf and every atom-based command fails the
    A_infinity audit (exit 3) instead of dividing by an underflowed
    average."""
    cfg = _write(tmp_path, "capped.json", {**_CAPPED, **extra})
    out_dir = tmp_path / "out"
    out = _python("-m", "rieszkit.cli", *command, "--config", cfg, "--out", str(out_dir))
    assert out.returncode == code, out.stderr
    a_infinity = "weight in A_infinity (finite Muckenhoupt index)"
    if command[0] == "weights":
        report = json.loads((out_dir / "weights-classify.json").read_text())["report"]
        assert report["critical_indices"]["q_critical"] == "inf"
    elif command[0] == "verify":
        report = json.loads(next(out_dir.glob("00-*.json")).read_text())["report"]
        assert report["failed_item"] == a_infinity
    else:
        error = json.loads(out.stderr.strip().splitlines()[-1])
        assert (error["error"], error["item"]) == ("hypothesis", a_infinity)


def test_cli_failed_a_infinity_gate_reads_the_same_everywhere(tmp_path, capsys):
    """|x|^300 is in no A_q up to the cap 256.  The pointwise check
    with a given degree and without one, and `atoms gen` deriving its
    degree, all fail the one A_infinity audit of ``atoms.atom_class`` (exit
    3), with the same item and detail."""
    raw = _base_config(weight={"kind": "power", "exponent": 300.0},
                       matrices=[[[1.0]], [[-1.0]]], exponents={"alpha": 0.5},
                       campaign={"count": 2}, checks=[{"check": "pointwise-atom-bound"}])
    failures = []
    for i, (argv, atom) in enumerate([(["verify"], {"d": 0}), (["verify"], {}),
                                      (["atoms", "gen"], {})]):
        cfg = _write(tmp_path, f"{i}.json", {**raw, "atom": {"p": 1.0, "p0": 2.0, **atom}})
        out = tmp_path / str(i)
        assert main([*argv, "--config", cfg, "--out", str(out)]) == 3
        if argv == ["verify"]:
            report = json.loads((out / "00-pointwise-atom-bound.json").read_text())["report"]
            failures.append((report["failed_item"], report["detail"]))
        else:
            error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            failures.append((error["item"], error["detail"]))
    assert failures == [("weight in A_infinity (finite Muckenhoupt index)",
                         "q_critical = inf (no A_q up to 256)")] * 3


def _pointwise_half(atom):
    return _base_config(matrices=[[[1.0]], [[-1.0]]], exponents={"alpha": 0.5},
                        atom=atom, checks=[{"check": "pointwise-atom-bound"}])


def test_cli_pointwise_audits_the_moment_degree(tmp_path):
    """|x|^{1/2} (q_w = 3/2) at p = 1/2 needs atoms of degree
    floor(3/2 / (1/2) - 1) = 2: the pointwise check with atom.d = 0 fails
    "moment degree at least the minimal degree" (exit 3), as theorem-thm1
    does, where it passed with one audit item."""
    cfg = _write(tmp_path, "d0.json", _pointwise_half({"p": 0.5, "p0": 2.0, "d": 0}))
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
    report = json.loads((out / "00-pointwise-atom-bound.json").read_text())["report"]
    assert (report["failed_item"], report["detail"]) == (
        "moment degree at least the minimal degree", "required 2")


@pytest.mark.parametrize("atom", [{"p": 1.0, "p0": 2.0}, {"p": 1.0, "p0": 2.0, "d": 0}],
                         ids=["derived-degree", "given-degree"])
def test_cli_pointwise_reads_the_atom_class_once(tmp_path, monkeypatch, atom):
    """The pointwise check derives its degree and audits it from one
    ``atoms.atom_class`` call, so a run reads the critical indices once,
    with or without atom.d (without it, it read them twice)."""
    from rieszkit import atoms

    calls = []
    real = atoms.critical_indices
    monkeypatch.setattr(atoms, "critical_indices", lambda w: calls.append(w) or real(w))
    cfg = _write(tmp_path, "pointwise.json", _pointwise_half(atom))
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "00-pointwise-atom-bound.json").read_text())
    assert [h["name"] for h in report["report"]["hypotheses"]] == [
        "weight in A_infinity (finite Muckenhoupt index)",
        "moment degree at least the minimal degree"]
    assert len(calls) == 1


def test_cli_every_command_derives_the_same_degree(tmp_path):
    """|x|^{1/2} (q_w = 3/2) with atom p = 3/4 and no atom.d: `atoms gen`
    writes atoms of the least degree floor(n (q_w/p - 1)) = 1, `atoms
    validate` accepts them, and a
    theorem-thm1 campaign on the same weight and p reports the same degree:
    both come from ``atoms.atom_class``."""
    cfg = _write(tmp_path, "thm1.json", _base_config(
        matrices=[[[1.0]], [[-1.0]]], exponents={"alpha": 0.0},
        atom={"p": 0.75, "p0": 2.0}, campaign={"count": 3},
        checks=[{"check": "theorem-thm1"}]))
    out = tmp_path / "out"
    assert main(["atoms", "gen", "--config", cfg, "--out", str(out)]) == 0
    assert main(["atoms", "validate", "--config", cfg, "--out", str(out)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "atoms.jsonl") as fh:
        degrees = {json.loads(line)["params"]["d"] for line in fh}
    report = json.loads((out / "00-theorem-thm1.json").read_text())["report"]
    assert degrees == {report["extras"]["d"]} == {1}


def test_cli_rh_index_above_cap_is_inf(tmp_path):
    """|x|^260 is in RH_s for every s, so r_w is "inf"; its RH_1024 estimate
    reads finite, since the power means on the 2^-8 balls (about 2^-2080)
    are carried as logarithms instead of underflowing to 0."""
    cfg = _write(tmp_path, "capped.json", {**_CAPPED, "classify": {
        "classes": [{"kind": "RH", "s": 1024.0}], "critical_indices": True}})
    assert main(["weights", "classify", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "weights-classify.json").read_text())["report"]
    assert report["classes"][0]["verdict"] == "finite"
    assert report["classes"][0]["constant"] >= 1.0
    assert report["critical_indices"] == {"q_critical": "inf", "rh_critical": "inf"}


def test_weights_log_classify_never_loads_scipy_integrate(tmp_path):
    """The log weight's radial primitives are closed forms and Gauss-Legendre
    sums, so a full classify run leaves scipy.integrate unloaded."""
    code = ("import sys, rieszkit.cli\n"
            "code = rieszkit.cli.main(sys.argv[1:])\n"
            "print(code, 'scipy.integrate' in sys.modules)")
    out = _python("-c", code, "weights", "classify", "--config",
                  os.path.join(CONFIG_DIR, "weights-log.json"),
                  "--out", str(tmp_path / "out"), check=True)
    assert out.stdout.strip().splitlines()[-1] == "0 False"


def test_theorem_campaign_and_sweep_never_load_scipy(tmp_path):
    """A 1-D theorem campaign and a 1-D operator sweep run end to end (near
    and far field, audits, norms) without importing any scipy module."""
    with open(os.path.join(CONFIG_DIR, "thm1-smoke.json")) as fh:
        raw = json.load(fh)
    raw["campaign"]["count"] = 2
    cfg = _write(tmp_path, "thm1.json", raw)
    code = ("import sys, rieszkit.cli\n"
            "codes = [rieszkit.cli.main(sys.argv[1:6]), rieszkit.cli.main(sys.argv[6:])]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = _python("-c", code, "verify", "--config", cfg, "--out", str(tmp_path / "thm1"),
                  "operator", "sweep", "--config", os.path.join(CONFIG_DIR, "sweep-t02.json"),
                  "--out", str(tmp_path / "sweep"), check=True)
    assert out.stdout.strip().splitlines()[-1] == "[0, 0] []"


def test_theorem_campaign_leaves_numpy_ma_unloaded(tmp_path):
    """A small theorem campaign never imports numpy.ma (np.unique would, at
    ~25 ms per process)."""
    with open(os.path.join(CONFIG_DIR, "thm1-smoke.json")) as fh:
        raw = json.load(fh)
    raw["campaign"]["count"] = 2
    cfg = _write(tmp_path, "thm1.json", raw)
    code = ("import sys, rieszkit.cli\n"
            "code = rieszkit.cli.main(sys.argv[1:])\n"
            "print(code, 'numpy.ma' in sys.modules)")
    out = _python("-c", code, "verify", "--config", cfg, "--out", str(tmp_path / "out"),
                  check=True)
    assert out.stdout.strip().splitlines()[-1] == "0 False"


def test_each_command_loads_only_its_modules(tmp_path):
    """A classify run loads no operator, atom or campaign module, an operator
    sweep no atom or campaign module, the maximal-inequality check no atom
    module, and `atoms gen` and `atoms validate` no campaign module: a
    process compiles only the source its command runs.  Only the maximal
    check, the integrals of a product weight on the line and the norms of
    atoms on the line at p0 != 2 load the whole-line rule
    (``line_integral``), and only a product weight's integrals in the plane
    load the disk rule (``plane_integral``); both take their panels from
    ``panels``, which holds them apart from ``operators``.  So a campaign
    process at p0 = 2, `atoms gen` and `atoms validate` at p0 = 2 and a
    power or log classify compile neither, a campaign at p0 = 3/2 compiles
    the whole-line rule, and a product classify does not compile
    ``operators``.  No
    command loads numpy.random (the atom stream is ``rieszkit.rng``),
    numpy.ma (which np.unique imports), hashlib and its OpenSSL module _hashlib (the config
    hash in the checks' provenance is the builtin sha256), dataclasses
    (the records are ``rieszkit.records``), or fractions and the decimal
    module it imports (exact moments and the atoms' orthogonal polynomials
    are integer ratios)."""
    code = ("import json, sys, rieszkit.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    code = rieszkit.cli.main(argv)\n"
            "    print('loaded', code, [m for m in ('atoms', 'operators', 'verify',\n"
            "                                       'line_integral', 'plane_integral', 'panels',\n"
            "                                       'hashlib', '_hashlib',\n"
            "                                       'numpy.random', 'numpy.ma', 'dataclasses',\n"
            "                                       'fractions', 'decimal')\n"
            "                           if m in sys.modules or 'rieszkit.' + m in sys.modules])")

    def loaded(*commands):
        argvs = [[*command, "--out", str(tmp_path / str(i))]
                 for i, command in enumerate(commands)]
        out = _python("-c", code, json.dumps(argvs), check=True)
        return [line for line in out.stdout.splitlines() if line.startswith("loaded")]

    with open(os.path.join(CONFIG_DIR, "thm1-smoke.json")) as fh:
        raw = json.load(fh)
    raw["campaign"]["count"] = 2
    thm1 = _write(tmp_path, "thm1.json", raw)
    with open(os.path.join(CONFIG_DIR, "ta-worked.json")) as fh:
        raw = json.load(fh)
    raw["campaign"]["count"] = 2
    ta = _write(tmp_path, "ta.json", raw)
    atoms_cfg = os.path.join(CONFIG_DIR, "atoms-campaign.json")
    product = _write(tmp_path, "product.json", {
        "version": 1, "dimension": 1,
        "weight": {"kind": "product_power", "factors": [[0.3, [0.0]], [-0.4, [1.0]]]},
        "classify": {"classes": [{"kind": "Ap", "p": 2.0}]}})
    assert loaded(
        ["weights", "classify", "--config", os.path.join(CONFIG_DIR, "weights-log.json")],
        ["weights", "classify", "--config", os.path.join(CONFIG_DIR, "weights-power-half.json")],
        ["operator", "sweep", "--config", os.path.join(CONFIG_DIR, "sweep-t02.json")],
        ["verify", "--config", os.path.join(CONFIG_DIR, "maximal-power-half.json")]) == [
        "loaded 0 []", "loaded 0 []", "loaded 0 ['operators', 'panels']",
        "loaded 0 ['operators', 'verify', 'line_integral', 'panels']"]
    assert loaded(["weights", "classify", "--config", product]) == [
        "loaded 0 ['line_integral', 'panels']"]
    assert loaded(["weights", "classify", "--config",
                   os.path.join(CONFIG_DIR, "weights-product-plane.json")]) == [
        "loaded 0 ['plane_integral', 'panels']"]
    assert loaded(
        ["atoms", "gen", "--config", atoms_cfg],
        ["atoms", "validate", "--config", atoms_cfg, "--manifest",
         str(tmp_path / "0" / "atoms.jsonl")],
        ["verify", "--config", thm1]) == [
        "loaded 0 ['atoms', 'operators', 'panels']", "loaded 0 ['atoms', 'operators', 'panels']",
        "loaded 0 ['atoms', 'operators', 'verify', 'panels']"]
    assert loaded(["verify", "--config", ta]) == [
        "loaded 0 ['atoms', 'operators', 'verify', 'line_integral', 'panels']"]


def test_no_command_calls_lapack(tmp_path):
    """No command calls LAPACK.  The child replaces numpy's LAPACK ufunc
    module with an object whose every attribute raises, which breaks inv,
    solve, svd, cond, norm(., 2) and det (vector norms along an axis do not
    use it); every command still exits 0.  The matrices are 1x1 or 2x2 and
    take closed forms in ``geometry``; ``atoms`` builds its atoms in closed
    form with no system to solve, here at degree 2 as well."""
    code = ("import json, sys, numpy as np, numpy.linalg._linalg as la, rieszkit.cli\n"
            "class NoLapack:\n"
            "    def __getattr__(self, name):\n"
            "        raise RuntimeError('LAPACK call: ' + name)\n"
            "la._umath_linalg = NoLapack()\n"
            "for call in (np.linalg.inv, np.linalg.cond, np.linalg.det):\n"
            "    try:\n"
            "        call(np.eye(2))\n"
            "        print('unarmed', call.__name__)\n"
            "    except RuntimeError:\n"
            "        pass\n"
            "print('codes', [rieszkit.cli.main(argv) for argv in json.loads(sys.argv[1])])")
    with open(os.path.join(CONFIG_DIR, "thm1-smoke.json")) as fh:
        thm1 = json.load(fh)
    thm1["campaign"]["count"] = 2
    with open(os.path.join(CONFIG_DIR, "atoms-campaign.json")) as fh:
        atoms = json.load(fh)
    atoms["campaign"]["count"] = 6
    degree_two = {**atoms, "atom": {**atoms["atom"], "d": 2}}
    configs = {name: _write(tmp_path, name, raw) for name, raw in (
        ("thm1.json", thm1), ("atoms.json", atoms), ("atoms-d2.json", degree_two))}
    commands = [
        ["weights", "classify", "--config", os.path.join(CONFIG_DIR, "weights-log.json")],
        *(["operator", "sweep", "--config", os.path.join(CONFIG_DIR, name)]
          for name in ("sweep-riesz.json", "sweep-t02.json", "sweep-disk.json")),
        ["verify", "--config", os.path.join(CONFIG_DIR, "maximal-power-half.json")],
        ["atoms", "gen", "--config", configs["atoms.json"]],
        ["atoms", "validate", "--config", configs["atoms.json"], "--manifest",
         str(tmp_path / "5" / "atoms.jsonl")],
        ["verify", "--config", configs["thm1.json"]],
        ["atoms", "gen", "--config", configs["atoms-d2.json"]]]
    argvs = [[*command, "--out", str(tmp_path / str(i))] for i, command in enumerate(commands)]
    out = _python("-c", code, json.dumps(argvs))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert not [line for line in lines if line.startswith("unarmed")]
    assert lines[-1] == "codes " + str([0] * len(commands))


def test_package_names_resolve_on_first_use():
    """Every public name resolves from the package and is listed by dir()."""
    import rieszkit

    listed = dir(rieszkit)
    for name in rieszkit.__all__:
        assert getattr(rieszkit, name) is not None and name in listed
    with pytest.raises(AttributeError):
        rieszkit.no_such_name


def test_cli_refined_lattice_keeps_the_campaign_passing(tmp_path):
    """At 3x the bundled lattice the outer edges leave a sliver cell next to
    the weight's centre; its midpoint ~1e-15 from the centre reads the weight
    there, not its +inf limit, so the campaign still passes."""
    with open(os.path.join(CONFIG_DIR, "ta-worked.json")) as fh:
        raw = json.load(fh)
    raw["campaign"].update(inner_resolution=768, outer_resolution=192, count=9)
    cfg = _write(tmp_path, "ta.json", raw)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "00-theorem-ta.json").read_text())["report"]
    assert report["verdict"] == "pass"
    assert any(r["center"] == [-2.0] and r["radius"] == 0.25 for r in report["witnesses"])


def _maximal_witnesses(tmp_path, raw):
    """The exit code, report and witness rows of a run of one maximal check."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = _write(tmp_path, "maximal.json", raw)
    out = tmp_path / "out"
    code = main(["verify", "--config", cfg, "--out", str(out)])
    with open(out / "00-maximal-inequality-witnesses.csv") as fh:
        rows = list(csv.DictReader(fh))
    report = json.loads((out / "00-maximal-inequality.json").read_text())["report"]
    assert len(rows) == len(report["witnesses"])
    return code, report, [(r["center"], float(r["radius"]), float(r["ratio"])) for r in rows]


def test_cli_maximal_check_reads_a_huge_ball_at_radius_one(tmp_path):
    """For |x|^{1/2} the ratio is dilation-invariant, and B(1, 1e300)
    reads the ratio of B(0, 1) (2.95167562248711, 30-digit mpmath): its
    integrals are logarithms, so nothing overflows (the truncated norm
    overflowed and the check exited 2, "undefined")."""
    with open(os.path.join(CONFIG_DIR, "maximal-power-half.json")) as fh:
        raw = json.load(fh)
    raw["checks"][0]["test_balls"][2]["radius"] = 1e300
    code, report, rows = _maximal_witnesses(tmp_path, raw)
    assert code == 0 and report["verdict"] == "pass" and report["extras"] == {}
    assert [row[:2] for row in rows] == [("[0.0]", 1.0), ("[0.0]", 0.5), ("[1.0]", 1e300)]
    for row in rows:
        assert row[2] == pytest.approx(2.9516756224871, rel=1e-12)


def test_cli_maximal_check_reads_a_tiny_ball_at_radius_one(tmp_path):
    """B(0, 1e-300) reads the ratio of B(0, 1) too, where ||chi_B||
    underflowed to 0 (exit 2, "undefined")."""
    code, report, rows = _maximal_witnesses(tmp_path, _base_config(checks=[
        {"check": "maximal-inequality", "test_balls": [{"center": [0.0], "radius": 1e-300}]}]))
    assert code == 0 and report["verdict"] == "pass" and report["extras"] == {}
    assert rows == [("[0.0]", 1e-300, pytest.approx(2.9516756224871, rel=1e-12))]


def test_cli_maximal_check_reads_an_underflowing_numerator_at_radius_one(tmp_path):
    """With p = 2 and alpha = 0.45, q = 20, and (M_alpha chi_B)^20 is below
    the float range on a ball of radius 1e-20. For the unit weight the ratio
    is dilation-invariant, and the logarithms read that ball's ratio as the
    unit ball's (it read NaN, exit 2, "undefined")."""
    code, report, rows = _maximal_witnesses(tmp_path, _base_config(
        weight={"kind": "power", "exponent": 0.0},
        checks=[{"check": "maximal-inequality", "p": 2.0, "alpha": 0.45,
                 "test_balls": [{"center": [0.0], "radius": 1.0},
                                {"center": [0.0], "radius": 1e-20}]}]))
    assert code == 0 and report["verdict"] == "pass" and report["extras"] == {}
    (_, _, unit), (_, _, tiny) = rows
    assert tiny == pytest.approx(unit, rel=1e-12) and 1.0 < unit < 1.1


def test_cli_maximal_check_sees_the_exponent_at_infinity(tmp_path, capsys):
    """|x|^{0.6} |x - 1|^{0.7} is |x|^{1.3} at infinity, so q_w = 2.3 and it
    is outside A_2, although each factor is in A_2. The audit reads that
    from the exponents and exits 3 at "w in A_2", naming the factor at
    infinity (its family maximum passed it, and the check exited 2 on its
    whole-line integrals). At p = 2.5 > q_w it passes."""
    weight = {"kind": "product_power", "factors": [[0.6, [0.0]], [0.7, [1.0]]]}
    cfg = _write(tmp_path, "maximal.json", _base_config(
        weight=weight, checks=[{"check": "maximal-inequality", "p": 2.0}]))
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "2")]) == 3
    report = json.loads((tmp_path / "2" / "00-maximal-inequality.json").read_text())["report"]
    assert report["failed_item"] == "w in A_2" and "at infinity" in report["detail"]
    assert "HYPOTHESIS FAILED: w in A_2 (w has the factor" in capsys.readouterr().out
    code, report, rows = _maximal_witnesses(tmp_path / "2.5", _base_config(
        weight=weight, checks=[{"check": "maximal-inequality", "p": 2.5}]))
    assert code == 0 and report["verdict"] == "pass" and report["extras"] == {}
    assert [ratio for _, _, ratio in rows] == pytest.approx([4.304, 3.507, 4.852], abs=1e-3)


def test_classify_weight_grid_script_judges_every_cell():
    """The grid script judges all 24 cells against p > q_w, the boundary
    cells (p = q_w) included, and finds no mismatch."""
    script = os.path.join(os.path.dirname(__file__), "..", "scripts",
                          "classify_weight_grid.py")
    out = _python(script)
    assert out.returncode == 0, out.stderr
    assert "0 mismatches" in out.stdout and "~" not in out.stdout


def test_compare_reports_script(tmp_path):
    """compare_reports ignores report timestamps, names the largest relative
    float change with its key path and the largest change in ulps, or the
    key path of the first other
    difference and what differs there, and exits non-zero on any
    difference."""
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "compare_reports.py")
    a, b = tmp_path / "a", tmp_path / "b"
    for root, stamp, value in ((a, "2020-01-01", 1.0), (b, "2021-02-02", 1.0)):
        (root / "sub").mkdir(parents=True)
        (root / "sub" / "r.json").write_text(json.dumps(
            {"timestamp": stamp, "report": {"worst": value, "verdict": "pass"}}))
        (root / "s.csv").write_text("x0,value\n0.5,2.0\n")
    out = _python(script, str(a), str(b))
    assert out.returncode == 0 and "2/2 files identical" in out.stdout

    (b / "s.csv").write_text("x0,value\n0.5,2.002\n")
    out = _python(script, str(a), str(b))
    assert out.returncode == 1
    assert "largest relative change 9.990e-04 at [1][1]" in out.stdout

    # the change in ulps is the count of doubles between the values
    (b / "s.csv").write_text(f"x0,value\n0.5,{2.0 + 3 * math.ulp(2.0)!r}\n")
    out = _python(script, str(a), str(b))
    assert "largest relative change 6.661e-16 at [1][1], largest 3 ulp" in out.stdout

    (b / "s.csv").write_text("x0,value\n0.5,2.0\n")
    (b / "sub" / "r.json").write_text(json.dumps(
        {"timestamp": "x", "report": {"worst": 1.0, "verdict": "fail"}}))
    (b / "extra.json").write_text("{}")
    out = _python(script, str(a), str(b))
    assert out.returncode == 1
    assert "non-numeric or non-finite change: report.verdict: value changed" in out.stdout
    assert "only in" in out.stdout

    # the first structural difference is named, before any float change
    (b / "sub" / "r.json").write_text(json.dumps(
        {"report": {"worst": 1.5, "stability": {}, "verdict": "pass"}}))
    (a / "sub" / "r.json").write_text(json.dumps(
        {"report": {"worst": 1.0, "stability": {"levels": [1.0]}, "verdict": "pass"}}))
    out = _python(script, str(a), str(b))
    assert "non-numeric or non-finite change: report.stability: keys changed" in out.stdout
    (b / "sub" / "r.json").write_text(json.dumps(
        {"report": {"worst": 1.5, "stability": {"levels": [1.0, 2.0]}, "verdict": "pass"}}))
    out = _python(script, str(a), str(b))
    assert "report.stability.levels: length changed" in out.stdout
    (b / "sub" / "r.json").write_text(json.dumps(
        {"report": {"worst": 1.5, "stability": {"levels": [1.001]}, "verdict": "pass"}}))
    out = _python(script, str(a), str(b))
    assert "largest relative change 3.333e-01 at report.worst" in out.stdout


def _no_constant(token):
    raise ValueError(f"non-JSON token {token}")


def test_bundled_reports_are_strict_json(tmp_path, capsys):
    """Every report of the bundled runs, and classify's stdout, parse as
    strict JSON: a non-finite float is written "inf", "-inf" or "nan", never
    the token Infinity or NaN."""
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_all_verifications.py")
    _python(script, "--out", str(tmp_path / "all"), check=True)
    reports = sorted((tmp_path / "all").rglob("*.json"))
    assert len(reports) == 11
    for path in reports:
        json.loads(path.read_text(), parse_constant=_no_constant)
    report = json.loads((tmp_path / "all" / "weights-power-half" / "weights-classify.json")
                        .read_text())["report"]
    assert report["classes"][0]["constant"] == "inf"
    assert main(["weights", "classify", "--config",
                 os.path.join(CONFIG_DIR, "weights-power-half.json"),
                 "--out", str(tmp_path / "w")]) == 0
    json.loads(capsys.readouterr().out, parse_constant=_no_constant)


@pytest.mark.parametrize("config, scale", [
    ("ta-worked.json", 1e300),
    ("rh-ball-inequality", 1e300),
    ("rh-ball-inequality", 1e-300),
])
def test_cli_weight_scale_out_of_float_range_exits_4(tmp_path, capsys, config, scale):
    """A check that forms w^t (here t = 8/3 and t = 3/2) of a weight whose
    scale**t under- or overflows is refused at weight.scale (exit 4), not
    ended by an OverflowError or a zero scale."""
    if config.endswith(".json"):
        with open(os.path.join(CONFIG_DIR, config)) as fh:
            raw = json.load(fh)
        raw["campaign"]["count"] = 2
    else:
        raw = _base_config(checks=[{"check": config, "p": 1.5, "alpha": 0.5}])
    raw["weight"] = {**raw["weight"], "exponent": -0.125, "scale": scale}
    cfg = _write(tmp_path, "scaled.json", raw)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "config" and error["path"] == "weight.scale"


def test_cli_rh_ball_inequality_is_scale_invariant(tmp_path):
    """Both sides of the RH ball inequality are invariant under w -> c w, and
    the check forms them from logarithms: scale 1e308 reads the verdict and
    the values of scale 1 instead of overflowing."""
    reports = []
    for scale in (1.0, 1e308):
        cfg = _write(tmp_path, "rh.json", _base_config(
            weight={"kind": "power", "exponent": -0.125, "scale": scale},
            checks=[{"check": "rh-ball-inequality", "p": 1.0, "alpha": 0.5}]))
        out = tmp_path / f"out-{scale:g}"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        reports.append(json.loads((out / "00-rh-ball-inequality.json").read_text())["report"])
    one, huge = reports
    assert one["verdict"] == huge["verdict"] == "pass"
    assert huge["worst"] == pytest.approx(one["worst"], abs=1e-12)
    assert huge["witnesses"][0]["lhs"] == pytest.approx(one["witnesses"][0]["lhs"], rel=1e-12)


def test_cli_check_requirements_fail_before_any_report(tmp_path, capsys):
    """A check whose config blocks are missing is refused when the config is
    read: the maximal check before it neither runs nor writes its report."""
    cfg = _write(tmp_path, "two.json", _base_config(
        checks=[{"check": "maximal-inequality", "p": 2.0}, {"check": "theorem-thm1"}]))
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 4
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "config" and error["path"] == "checks[1].check"
    assert not out.exists()


def _pointwise_config(exponent, radii):
    return _base_config(weight={"kind": "power", "exponent": exponent},
                        matrices=[[[1.0]], [[-1.0]]],
                        exponents={"alpha": 0.5, "alphas": [0.25, 0.25]},
                        atom={"p": 1.0, "p0": 2.0},
                        checks=[{"check": "pointwise-atom-bound", "radii": radii}])


def test_cli_pointwise_bound_at_extreme_radii(tmp_path, capsys):
    """Both sides of the pointwise bound scale alike under dilation and are
    formed from logarithms, so radii 1e150 and 1e-300 read the unit ball's
    ratio.  A radius past ``geometry.MAX_EXTENT`` exits 4 at its field, and
    a ball whose w(B) underflows to 0 (|x|^{1/2} at radius 1e-300) exits 2
    with a degenerate atom, in the pointwise check and in a campaign."""
    reports = {}
    for radii in ([1.0], [1e150, 1e-300]):
        cfg = _write(tmp_path, "pointwise.json", _pointwise_config(-0.125, radii))
        out = tmp_path / f"out-{len(radii)}"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        reports[len(radii)] = json.loads(
            (out / "00-pointwise-atom-bound.json").read_text())["report"]
    unit, extreme = reports[1]["worst"], reports[2]
    assert extreme["verdict"] == "pass" and extreme["worst"] == pytest.approx(unit, rel=1e-12)
    assert list(extreme["stability"]["by_radius"].values()) == pytest.approx(
        [unit, unit], rel=1e-12)
    capsys.readouterr()

    cfg = _write(tmp_path, "far.json", _pointwise_config(-0.125, [1e300, 1.0]))
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "far")]) == 4
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "config" and error["path"] == "checks[0].radii[0]"

    with open(os.path.join(CONFIG_DIR, "thm1-smoke.json")) as fh:
        campaign = json.load(fh)
    campaign["campaign"].update(count=2, radii=[1e-300])
    for name, raw in (("tiny.json", _pointwise_config(0.5, [1e-300, 1.0])),
                      ("campaign.json", campaign)):
        cfg = _write(tmp_path, name, raw)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "tiny")]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "check" and "w(B) = 0" in error["message"]


def test_bundled_pointwise_drift_measures_something(tmp_path):
    """At centre 0 a power weight, a pair of reflections and the atoms'
    dilations make every radius read the same ratio, so the drift across
    radii is 1 by symmetry; the bundled config's centre 0.3 breaks that, and
    its drift (1.87) stays below the factor 4."""
    with open(os.path.join(CONFIG_DIR, "pointwise-off-centre.json")) as fh:
        raw = json.load(fh)
    drifts = []
    for center in ([0.3], [0.0]):
        raw["checks"][0]["center"] = center
        cfg = _write(tmp_path, "pointwise.json", raw)
        out = tmp_path / f"out-{center[0]:g}"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "00-pointwise-atom-bound.json").read_text())["report"]
        drifts.append(report["stability"]["drift_radii"])
    off_centre, centred = drifts
    assert 1.5 < off_centre < 4.0 and centred == pytest.approx(1.0, abs=1e-12)


def test_bundled_runs_cover_every_check_kind():
    """``run_all_verifications.py`` runs every check kind, apart from
    rh-ball-inequality, which reads its constant off the family it tests,
    and its runs read exactly the configs in ``configs/``: a deleted config
    leaves no dangling run, and a new one cannot go unrun."""
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), "..", "scripts",
                        "run_all_verifications.py")
    spec = importlib.util.spec_from_file_location("run_all_verifications", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    kinds = {item["check"] for command, _, name in script.RUNS if command == "verify"
             for item in load_config(os.path.join(CONFIG_DIR, name)).checks}
    assert kinds == set(KNOWN_CHECKS) - {"rh-ball-inequality"}
    assert {name for _, _, name in script.RUNS} == set(os.listdir(CONFIG_DIR))
