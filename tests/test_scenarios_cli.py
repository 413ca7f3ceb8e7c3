import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from modstab import builtin_scenarios, list_builtin_scenarios, run_scenario, scenarios
from modstab.cli import main as cli_main
from modstab.report import SCHEMA


def small_stability_config(**overrides):
    cfg = {
        "name": "mini",
        "algebra": {"preset": "matrix2"},
        "modular": {"kind": "norm", "kappa": 2.0},
        "map": {
            "kernel": {"form": "commutator", "c": [1.0, 0.0]},
            "perturbation": {"name": "bounded_osc", "epsilon": 0.01, "boundary_safe": True},
        },
        "psi": {"form": "power", "theta": "calibrate", "p": 0.5, "direction": "ascending"},
        "s": [0.5, 0.0],
        "rho_tilde_weight": "psi_xx_z0",
        "probes": {"count": 32, "radius": 1.0, "seed": 3},
        "iteration": {"direction": "ascending", "n_max": 40, "tol": 1e-10},
        "checks": ["inequality_A", "stability_bound", "biadditivity"],
    }
    cfg.update(overrides)
    return cfg


def test_catalog_contents():
    names = list_builtin_scenarios()
    assert len(names) >= 6
    assert "superstability-commutator" in names
    assert "lemma-falsifier" in names


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_every_builtin_runs_without_config_error(name):
    result = run_scenario(name)
    assert result.exit_code != 2


def test_builtin_expected_exit_codes():
    assert run_scenario("superstability-commutator").exit_code == 0
    assert run_scenario("lemma-falsifier").exit_code == 1
    assert run_scenario("axioms-suite").exit_code == 0


def test_invalid_s_exits_two():
    result = run_scenario(small_stability_config(s=[1.5, 0.0]))
    assert result.exit_code == 2
    assert not result.records[0].passed
    assert "s" in result.records[0].payload["error"]


def test_zero_s_exits_two():
    assert run_scenario(small_stability_config(s=[0.0, 0.0])).exit_code == 2


def test_unknown_check_exits_two():
    result = run_scenario(small_stability_config(checks=["inequality_A", "nonsense"]))
    assert result.exit_code == 2


def test_unknown_preset_exits_two():
    result = run_scenario(small_stability_config(algebra={"preset": "octonions"}))
    assert result.exit_code == 2


def test_direction_mismatch_exits_two():
    cfg = small_stability_config()
    cfg["iteration"]["direction"] = "descending"
    assert run_scenario(cfg).exit_code == 2


def test_power_env_direction_guard():
    cfg = small_stability_config()
    cfg["map"]["perturbation"] = {"name": "power_env", "epsilon": 0.01, "p": 2.0}
    assert run_scenario(cfg).exit_code == 2  # p > 1 cannot ride an ascending run


def test_small_scenario_passes_and_reports_theta():
    result = run_scenario(small_stability_config())
    assert result.exit_code == 0
    echo = result.records[0]
    assert echo.stage == "config"
    assert echo.payload["theta"] > 0
    assert echo.payload["L"] == pytest.approx(2.0 ** (-0.5))


def test_seed_and_probe_overrides():
    base = run_scenario(small_stability_config())
    other = run_scenario(small_stability_config(), seed_override=99, probes_override=48)
    assert other.exit_code == 0
    assert other.records[0].payload["probes"] == {"count": 48, "radius": 1.0, "seed": 99}
    assert base.records[0].payload["probes"]["seed"] == 3


def test_payload_lines_are_deterministic():
    a = run_scenario("corollary-descending-p2")
    b = run_scenario("corollary-descending-p2")
    lines_a = [r.to_json() for r in a.records]
    lines_b = [r.to_json() for r in b.records]
    assert lines_a == lines_b
    ha = {k: v for k, v in a.header.items() if k != "created_at"}
    hb = {k: v for k, v in b.header.items() if k != "created_at"}
    assert ha == hb


def test_exit_code_is_a_function_of_records():
    result = run_scenario("lemma-falsifier")
    fails = [r for r in result.records if not r.advisory and not r.passed]
    assert result.exit_code == (1 if fails else 0)
    assert all(r.payload["check"] == "inequality_A" for r in fails)


def test_overflow_abort_becomes_failing_record():
    cfg = small_stability_config()
    cfg["iteration"]["magnitude_cap"] = 1e3
    result = run_scenario(cfg)
    assert result.exit_code == 1
    aborts = [r for r in result.records if r.stage == "iterate" and "error" in r.payload]
    assert aborts and aborts[0].payload["level"] is not None


def test_iterate_records_streamed():
    result = run_scenario(small_stability_config())
    levels = [r.payload["level"] for r in result.records if r.stage == "iterate"]
    assert levels == sorted(levels) and len(levels) >= 2
    out = result.context["outcome"]
    assert out.N_converged == levels[-1]


def test_axioms_suite_broken_fixture_detected():
    result = run_scenario("axioms-suite")
    rows = [
        r.payload
        for r in result.records
        if r.payload.get("check") == "modular_axiom" and r.payload["fixture"] == "dead-zone-broken"
    ]
    flagged = [p for p in rows if p["axiom"] == "i"]
    assert flagged and flagged[0]["expected_violation"]
    assert result.exit_code == 0


# --- CLI ----------------------------------------------------------------------


def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert "corollary-ascending-p05" in out


def test_cli_norm_one_shot(capsys):
    assert cli_main(["norm", "power:2", "[3, 4]"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(5.0, abs=1e-9)


def test_cli_norm_complex_entries(capsys):
    assert cli_main(["norm", "norm", "[[3, 0], [0, 4]]"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(5.0, abs=1e-9)


def test_cli_norm_bad_modular(capsys):
    assert cli_main(["norm", "weird", "[1]"]) == 2


def test_cli_norm_large_entry_terminates():
    # one ulp of 1e6 exceeds the 1e-12 bracket width, so only the stop on a
    # midpoint that rounds onto the bracket ends the bisection
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from modstab.cli import main; sys.exit(main(sys.argv[1:]))",
         "norm", "norm", "[1e6]"],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) == 1e6


def test_cli_norm_divergent_bracket_exits_two(capsys):
    assert cli_main(["norm", "norm", "[1e30]"]) == 2
    assert "2**64" in capsys.readouterr().err


def test_cli_decompose(capsys):
    assert cli_main(["decompose", "3", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    vals = [complex(float(l.split()[0]), float(l.split()[1])) for l in lines[:3]]
    assert vals == [1.0 + 0j, 1.0 + 0j, 1.0 + 0j]


def test_cli_decompose_out_of_disc(capsys):
    assert cli_main(["decompose", "4", "0"]) == 2


@pytest.mark.parametrize("args", [["nan", "0"], ["0", "nan"], ["inf", "0"], ["1", "inf"]])
def test_cli_decompose_non_finite_exits_two(args, capsys):
    assert cli_main(["decompose", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


def test_cli_decompose_out_of_disc_message(capsys):
    assert cli_main(["decompose", "1e308", "1e308"]) == 2
    assert capsys.readouterr().err == "error: |w| = 1.41421e+308 exceeds 3\n"


def test_cli_run_builtin_to_file(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = cli_main(["run", "superstability-commutator", "--out", str(out), "--quiet"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == SCHEMA
    assert "config_hash" in header and "created_at" in header
    body = [json.loads(l) for l in lines[1:]]
    assert all({"scenario", "stage", "pass", "payload"} <= set(doc) for doc in body)
    assert body[0]["stage"] == "config"


def test_cli_run_config_file(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(small_stability_config()))
    assert cli_main(["run", str(path), "--quiet"]) == 0


def test_cli_run_missing_config_exits_two(tmp_path):
    assert cli_main(["run", str(tmp_path / "nope.json"), "--quiet"]) == 2


def test_cli_run_invalid_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli_main(["run", str(path), "--quiet"]) == 2


def test_cli_run_numeric_abort_exits_two_with_diagnostic(tmp_path):
    # a non-finite map value raised during calibration, outside stabilize
    cfg = json.loads(json.dumps(builtin_scenarios()["corollary-descending-p2"]))
    cfg["map"]["perturbation"]["epsilon"] = 1e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "report.jsonl"
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli_main(["run", str(path), "--out", str(out), "--quiet"])
    assert code == 2
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["schema"] == SCHEMA
    diag = json.loads(lines[1])
    assert diag["stage"] == "config" and not diag["pass"]
    assert "not finite" in diag["payload"]["error"]


def _run_to_report(cfg, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "report.jsonl"
    code = cli_main(["run", str(path), "--out", str(out), "--quiet"])
    return code, [json.loads(line) for line in out.read_text().strip().splitlines()]


def test_cli_run_numeric_abort_raises_no_numpy_warning(tmp_path):
    cfg = json.loads(json.dumps(builtin_scenarios()["corollary-descending-p2"]))
    cfg["map"]["perturbation"]["epsilon"] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, lines = _run_to_report(cfg, tmp_path)
    assert code == 2 and len(lines) == 2
    assert "not finite" in lines[1]["payload"]["error"]


def test_cli_run_nonconvex_modular_exits_two_with_diagnostic(tmp_path):
    # UnsupportedModularError from the envelope's Luxemburg norm
    cfg = json.loads(json.dumps(builtin_scenarios()["superstability-commutator"]))
    cfg["modular"] = {"kind": "orlicz", "phi": "square", "convex": False}
    code, lines = _run_to_report(cfg, tmp_path)
    assert code == 2
    assert len(lines) == 2
    assert lines[0]["schema"] == SCHEMA
    assert lines[1]["stage"] == "config" and not lines[1]["pass"]
    assert "convex" in lines[1]["payload"]["error"]


def _malformed(section, value):
    cfg = small_stability_config()
    cfg[section] = value
    return json.dumps(cfg)


def _no_perturbation_name():
    cfg = small_stability_config()
    del cfg["map"]["perturbation"]["name"]
    return json.dumps(cfg)


def _axioms_fixture_without_modular():
    cfg = json.loads(json.dumps(builtin_scenarios()["axioms-suite"]))
    del cfg["fixtures"][1]["modular"]
    return json.dumps(cfg)


def _bogus_weight(name, drop_iteration=False):
    cfg = json.loads(json.dumps(builtin_scenarios()[name]))
    cfg["rho_tilde_weight"] = "bogus"
    if drop_iteration:
        cfg["iteration"] = None
        cfg["checks"] = [c for c in cfg["checks"] if c != "stability_bound"]
    return json.dumps(cfg)


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        _malformed("probes", {"count": "abc"}),
        _no_perturbation_name(),
        _malformed("s", [0.5, "x"]),
        _malformed("probes", [1, 2]),
        _axioms_fixture_without_modular(),
        _bogus_weight("corollary-ascending-p05"),
        _bogus_weight("superstability-commutator", drop_iteration=True),
    ],
    ids=["json-list", "count-abc", "perturbation-no-name", "s-text", "probes-list",
         "fixture-no-modular", "weight-bogus", "weight-bogus-no-iteration"],
)
def test_cli_run_malformed_config_exits_two(text, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scenarios, "calibrate_theta", lambda *a, **k: pytest.fail("calibrated"))
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "report.jsonl"
    assert cli_main(["run", str(path), "--out", str(out), "--quiet"]) == 2
    lines = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert len(lines) == 2 and lines[0]["schema"] == SCHEMA
    assert lines[1]["stage"] == "config" and not lines[1]["pass"]
    assert "Traceback" not in capsys.readouterr().err


def test_missing_iteration_rejected_before_any_work(monkeypatch):
    # the envelope's L = 0.5 is below the sharp 2^-1/2, so a run that got as
    # far as the psi law would fail there and exit 1
    cfg = small_stability_config(iteration=None, checks=["inequality_A", "stability_bound"])
    cfg["psi"]["L"] = 0.5
    monkeypatch.setattr(scenarios, "calibrate_theta", lambda *a, **k: pytest.fail("calibrated"))
    result = run_scenario(cfg)
    assert result.exit_code == 2
    assert [r.payload for r in result.records] == [
        {"error": "stability_bound requires an iteration section"}
    ]


def test_checks_call_their_checkers_through_the_module(monkeypatch):
    # the check registry must look checkers up by name at call time, so that
    # a wrapper installed on the module (a tracer, a mock) sees every call
    calls = []
    for name in ("check_uniqueness", "bounded_orbit_estimate", "check_biadditivity"):
        original = getattr(scenarios, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(scenarios, name, counted)
    cfg = small_stability_config(checks=["biadditivity", "bounded_orbit", "uniqueness"])
    assert run_scenario(cfg).exit_code == 0
    assert calls == ["check_biadditivity", "bounded_orbit_estimate", "check_uniqueness"]


def test_ascending_builtin_iterates_once(monkeypatch):
    # the uniqueness check reads its reruns off the run's one iteration
    stabilize_module = sys.modules["modstab.stabilize"]
    original = stabilize_module.stabilize
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("telescoping", True))
        return original(*args, **kwargs)

    monkeypatch.setattr(stabilize_module, "stabilize", counted)
    monkeypatch.setattr(scenarios, "stabilize", counted)
    result = run_scenario("corollary-ascending-p05")
    assert result.exit_code == 0
    assert calls == [True]
    [rep] = [r.payload for r in result.records if r.payload.get("check") == "uniqueness"]
    assert [v[1] for v in rep["variants"]] == [result.context["outcome"].N_converged] * 5


def test_stability_bound_evaluates_no_map_block_again(monkeypatch):
    # d(x, z) and its limit D(x, z) are levels 0 and N of the run's table:
    # the check makes no map call, and its records are those of a fresh
    # evaluation of both
    from modstab.bimaps import BiMap
    from modstab.verify import check_stability_bound

    during, in_check = [], []  # per map call: was the check running?
    original_call = BiMap.__call__

    def counted_call(self, x, z):
        during.append(bool(in_check))
        return original_call(self, x, z)

    def checked(*args, **kwargs):
        in_check.append(True)
        try:
            return check_stability_bound(*args, **kwargs)
        finally:
            in_check.pop()

    monkeypatch.setattr(BiMap, "__call__", counted_call)
    monkeypatch.setattr(scenarios, "check_stability_bound", checked)
    result = run_scenario("corollary-ascending-p05")
    assert result.exit_code == 0
    assert during and not any(during)
    monkeypatch.undo()

    ctx = result.context
    probes, psi = ctx["probes"], ctx["psi"]
    X, Z = probes.x, probes.z
    fresh = check_stability_bound(ctx["bimap"](X, Z), ctx["outcome"].D(X, Z), psi, ctx["rho_fn"],
                                  probes, corollary_theta=psi.theta)
    want = [json.dumps({"check": r.check_name, "probe_id": r.probe_id, "lhs": r.lhs,
                        "rhs": r.rhs, "margin": r.margin, **r.extra}) for r in fresh]
    got = [json.dumps(r.payload) for r in result.records
           if r.payload.get("check") == "stability_bound"]
    assert got == want and len(got) == len(probes)


def test_map_into_a_zero_dimensional_value_space_runs():
    # every modular of an empty row is 0; the row reductions and stacked
    # sweeps must not trip over the empty value axis
    cfg = small_stability_config(
        map={"kernel": {"form": "tensor", "value_dim": 0, "tensor": []}},
        checks=["inequality_A", "stability_bound", "first_slot_linearity", "bounded_orbit",
                "uniqueness"],
    )
    cfg["psi"]["theta"] = 1.0
    result = run_scenario(cfg)
    assert result.exit_code == 0
    assert not any("error" in r.payload for r in result.records)


def _huge_count(where):
    if where == "probes.count":
        cfg = small_stability_config()
        cfg["probes"]["count"] = scenarios.MAX_SAMPLE_COUNT + 1
    else:
        cfg = json.loads(json.dumps(builtin_scenarios()["axioms-suite"]))
        cfg["samples"]["count"] = 10**11
    return cfg


@pytest.mark.parametrize("where", ["--probes", "probes.count", "samples.count"])
def test_sample_count_past_the_limit_exits_two_before_drawing(where, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("drew samples")

    monkeypatch.setattr(scenarios, "draw_probes", refuse)
    monkeypatch.setattr(scenarios, "draw_axiom_samples", refuse)
    out = tmp_path / "report.jsonl"
    if where == "--probes":
        argv = ["run", "lemma-falsifier", "--probes", "100000000000"]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_huge_count(where)))
        argv = ["run", str(path)]
    assert cli_main(argv + ["--out", str(out), "--quiet"]) == 2
    lines = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert len(lines) == 2 and lines[1]["stage"] == "config" and not lines[1]["pass"]
    assert "exceeds the limit of 100000" in lines[1]["payload"]["error"]


def test_sample_count_at_the_limit_is_accepted():
    limit = scenarios.MAX_SAMPLE_COUNT
    assert scenarios._sample_count(None, {"count": limit}, 512) == limit
    assert scenarios._sample_count(limit, {"count": 10**12}, 512) == limit


def _ascending_iteration(**iteration):
    cfg = json.loads(json.dumps(builtin_scenarios()["corollary-ascending-p05"]))
    cfg["iteration"] = iteration
    return cfg


def test_uniqueness_rerun_stops_below_the_magnitude_cap():
    # the iteration walks levels 0..20 under a 2^22 cap; the rerun capped at
    # n_max + 5 = 25 stops at level 22 instead of ending the run
    result = run_scenario(_ascending_iteration(n_max=20, tol=1e-30, magnitude_cap=2.0**22))
    assert result.exit_code == 1
    assert not any("error" in r.payload for r in result.records)
    [stab] = [r for r in result.records if r.payload.get("check") == "stabilize"]
    assert stab.payload["n_converged"] == 20 and not stab.payload["converged"]
    assert not stab.passed
    [uniq] = [r.payload for r in result.records if r.payload.get("check") == "uniqueness"]
    assert [v[:2] for v in uniq["variants"]] == [
        ["start=1", 20], ["start=2", 20], ["start=3", 20], ["n_max=15", 15], ["n_max=25", 22]]


def test_uniqueness_labels_the_level_cap_it_ran():
    result = run_scenario(_ascending_iteration(n_max=3))
    [uniq] = [r.payload for r in result.records if r.payload.get("check") == "uniqueness"]
    assert [v[:2] for v in uniq["variants"]] == [
        ["start=1", 3], ["start=2", 3], ["start=3", 3], ["n_max=1", 1], ["n_max=8", 8]]


def _orlicz_luxemburg_config():
    cfg = json.loads(json.dumps(builtin_scenarios()["corollary-descending-p2"]))
    cfg["modular"] = {"kind": "orlicz", "phi": "linear", "kappa": 2.0}
    cfg["psi"]["theta"] = 1.0
    cfg["probes"]["count"] = 32
    return cfg


def test_orlicz_run_bisects_each_distinct_row_once(monkeypatch):
    import modstab.modular

    calls, bisected = [], []
    original = modstab.modular.luxemburg_norm

    def counted(m, x, *args, **kwargs):
        calls.append(x)
        bisected.extend(r.tobytes() for r in np.ascontiguousarray(x, dtype=np.complex128))
        return original(m, x, *args, **kwargs)

    monkeypatch.setattr(modstab.modular, "luxemburg_norm", counted)
    cached = run_scenario(_orlicz_luxemburg_config())
    assert 0 < len(calls) <= 6
    assert len(bisected) == len(set(bisected))

    monkeypatch.setattr(scenarios, "coeff_norm_fn", lambda m: lambda rows: original(m, rows))
    uncached = run_scenario(_orlicz_luxemburg_config())
    assert cached.exit_code == uncached.exit_code
    assert [r.to_json() for r in cached.records] == [r.to_json() for r in uncached.records]
