import errno
import json
import os
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import modstab.cli
from modstab import (
    ModularSpec, builtin_scenarios, config, list_builtin_scenarios, preset, run_scenario,
    scenarios,
)
from modstab._kernels import BLOCK_ROWS, row_blocks
from modstab.cli import main as cli_main
from modstab.report import SCHEMA

FIELDS = {row[0]: row for row in config.SCHEMA}
MAX_ALGEBRA_DIM = FIELDS["algebra.dim"][2][1]
MAX_SAMPLE_DIM = FIELDS["samples.dim"][2][1]


def small_stability_config(**overrides):
    cfg = {
        "name": "mini",
        "algebra": {"preset": "matrix2"},
        "modular": {"kind": "norm", "kappa": 2.0},
        "map": {
            "kernel": {"form": "commutator", "c": [1.0, 0.0]},
            "perturbation": {"name": "bounded_osc", "epsilon": 0.01, "boundary_safe": True},
        },
        "psi": {"theta": "calibrate", "p": 0.5, "direction": "ascending"},
        "s": [0.5, 0.0],
        "probes": {"count": 32, "radius": 1.0, "seed": 3},
        "iteration": {"n_max": 40, "tol": 1e-10},
        "checks": ["inequality_A", "stability_bound", "biadditivity"],
    }
    cfg.update(overrides)
    return cfg


def test_catalog_contents():
    names = list_builtin_scenarios()
    assert len(names) >= 6
    assert "superstability-commutator" in names
    assert "lemma-falsifier" in names


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


def test_an_expected_convex_axiom_violation_on_a_convex_fixture_is_not_caught():
    cfg = builtin_scenarios()["axioms-suite"]
    cfg["fixtures"][2]["expect_violation"] = "axiom_iii_convex"
    assert run_scenario(cfg).exit_code == 1  # orlicz "square" is convex: nothing caught


def _axioms_at_radius(radius, fixtures):
    return {"name": "axioms-radius", "kind": "axioms",
            "samples": {"count": 400, "radius": radius, "seed": 5, "dim": 4},
            "fixtures": fixtures}


def test_norm_axioms_at_radius_1e200_have_finite_margins():
    # the sums of squares overflow there; the norm's rows are rescaled, so no
    # margin is inf - inf and axioms i, iii and iii_convex pass.  Axiom ii and
    # the remark's scalar margin are one rounding of a 1e200 norm, above the
    # absolute tol
    norm = {"label": "norm", "modular": {"kind": "norm"}}
    result = run_scenario(_axioms_at_radius(1e200, [norm]))
    rows = {r.payload.get("axiom", r.payload["check"]): r for r in result.records[1:]}
    assert all(np.isfinite(r.payload["margin"])
               for k, r in rows.items() if k != "remark_properties")
    assert [k for k, r in rows.items() if r.passed] == ["i", "iii", "iii_convex"]


def test_an_expected_violation_with_a_nan_margin_is_not_caught():
    # rho(x) = sum |x_i|^2 is inf at radius 1e200, so axiom ii's margin is
    # inf - inf: NaN is no evidence of the violation
    fixture = {"label": "power-p2", "modular": {"kind": "power", "p": 2.0, "kappa": 2.0},
               "expect_violation": "axiom_ii"}
    result = run_scenario(_axioms_at_radius(1e200, [fixture]))
    [row] = [r for r in result.records if r.payload.get("axiom") == "ii"]
    assert row.payload["expected_violation"] and np.isnan(row.payload["margin"])
    assert not row.passed and result.exit_code == 1


def test_axioms_suite_at_radius_1e200_fails_its_nan_rows_without_a_warning():
    # orlicz-square's values exceed float64 there, so its margins are inf - inf;
    # the NaN rows fail by the pass rule, and no numpy warning is raised
    cfg = builtin_scenarios()["axioms-suite"]
    cfg["samples"]["radius"] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_scenario(cfg)
    assert result.exit_code == 1
    square = [r for r in result.records[1:] if r.payload["fixture"] == "orlicz-square"]
    nan_rows = [r for r in square if any(np.isnan(v) for k, v in r.payload.items() if "margin" in k)]
    assert len(nan_rows) == 4 and not any(r.passed for r in nan_rows)


@pytest.mark.parametrize("name, exit_code, error", [
    ("superstability-commutator", 1, None),
    ("corollary-ascending-p05", 2, "map evaluation is not finite at batch row 0"),
    ("corollary-descending-p2", 2, "map evaluation is not finite at batch row 0"),
    ("inequality-B-descending", 2, "map evaluation is not finite at batch row 0"),
])
def test_probes_at_radius_1e308_overflow_without_a_warning(name, exit_code, error):
    # the map's product and psi's scaled probes overflow there: the overflow
    # fails psi_law, or ends calibration at the map's finiteness check, and
    # no numpy warning is raised
    cfg = builtin_scenarios()[name]
    cfg["probes"]["radius"] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_scenario(cfg)
    assert result.exit_code == exit_code
    if error is None:
        assert [r.payload["check"] for r in result.records if not r.passed] == ["psi_law"]
    else:
        assert [r.payload for r in result.records] == [{"error": error}]


def test_an_integer_radius_past_float_range_exits_two_naming_the_field():
    # 5,000 digits: past float range, and too long for Python to format
    cfg = small_stability_config()
    cfg["probes"]["radius"] = 10**5000
    result = run_scenario(cfg)
    assert result.exit_code == 2
    assert [r.payload for r in result.records] == [
        {"error": "probes.radius must be a finite number"}
    ]


# Python's limit on the digits of an int it converts to text; 10**5000 is past it
DIGITS = sys.get_int_max_str_digits()


@pytest.mark.parametrize("count", [None, 32])
def test_a_seed_past_the_digit_limit_exits_two_naming_the_field(count):
    # no report could write the seed
    cfg = small_stability_config()
    cfg["probes"]["seed"] = 10**5000
    result = run_scenario(cfg, probes_override=count)
    assert result.exit_code == 2
    assert [r.payload for r in result.records] == [
        {"error": f"probes.seed has over {DIGITS} digits, past what a report can write"}
    ]


@pytest.mark.parametrize("override", [None, 7])
def test_an_unread_seed_past_the_digit_limit_exits_two(override):
    # --seed-override leaves the seed unread, but the header still hashes the
    # config as given, so the seed gets the record it gets without one
    cfg = small_stability_config()
    cfg["probes"]["seed"] = 10**5000
    result = run_scenario(cfg, seed_override=override)
    assert result.exit_code == 2
    [record] = result.records
    assert record.stage == "config" and not record.passed
    assert record.payload == {
        "error": f"probes.seed has over {DIGITS} digits, past what a report can write"
    }


def test_an_unread_count_past_the_digit_limit_names_its_limit():
    cfg = small_stability_config()
    cfg["probes"]["count"] = 10**5000
    result = run_scenario(cfg, probes_override=64)
    assert result.exit_code == 2
    assert [r.payload for r in result.records] == [
        {"error": f"probes.count has over {DIGITS} digits, past the limit of {config.MAX_SAMPLE_COUNT}"}
    ]


def test_an_unknown_key_past_the_digit_limit_is_named_by_its_section():
    cfg = small_stability_config()
    cfg["probes"][10**5000] = 1
    result = run_scenario(cfg)
    assert result.exit_code == 2
    assert [r.payload for r in result.records] == [
        {"error": f"probes has an unknown key, a value with over {DIGITS} digits"}
    ]


def test_a_count_past_the_digit_limit_names_the_field_and_its_limit():
    cfg = small_stability_config()
    cfg["probes"]["count"] = 10**5000
    result = run_scenario(cfg)
    assert result.exit_code == 2
    assert [r.payload for r in result.records] == [
        {"error": f"probes.count has over {DIGITS} digits, past the limit of {config.MAX_SAMPLE_COUNT}"}
    ]


@pytest.mark.parametrize("path", ["probes", "probes.radius", "probes.count", "modular.kind",
                                  "map.perturbation.boundary_safe", "checks"])
def test_a_wrong_value_past_the_digit_limit_is_named_without_its_digits(path):
    cfg = small_stability_config()
    *sections, key = path.split(".")
    section = cfg
    for name in sections:
        section = section[name]
    section[key] = [10**5000]
    result = run_scenario(cfg)
    assert result.exit_code == 2
    [record] = result.records
    assert record.payload["error"].startswith(path + " ")
    assert record.payload["error"].endswith(f"got a value with over {DIGITS} digits")


def test_a_name_no_report_can_write_exits_two_naming_the_field():
    cfg = small_stability_config()
    cfg["name"] = 10**5000
    result = run_scenario(cfg)
    assert result.exit_code == 2
    assert [r.payload for r in result.records] == [{"error": "name cannot be written to a report"}]


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


@pytest.mark.parametrize("vector, printed", [
    ("[1e200]", "1e+200"), ("[1e200, 1]", "1e+200"), ("[1e-200]", "1e-200"),
    ("[1e308, 1e308]", "1.41421356237e+308"),
])
def test_cli_norm_of_entries_whose_squares_leave_the_float_range(vector, printed, capsys):
    assert cli_main(["norm", "norm", vector]) == 0
    assert capsys.readouterr().out == printed + "\n"


def test_cli_norm_bad_modular(capsys):
    assert cli_main(["norm", "weird", "[1]"]) == 2


def test_cli_norm_large_entry_terminates():
    # one ulp of the norm exceeds the 1e-12 bracket width, so only the stop
    # on a midpoint that rounds onto the bracket ends the bisection
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from modstab.cli import main; sys.exit(main(sys.argv[1:]))",
         "norm", "orlicz:exp_minus_one", "[1e6]"],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert run.returncode == 0, run.stderr
    # expm1(1e6 / lam) <= 1 iff lam >= 1e6 / ln 2
    assert float(run.stdout) == pytest.approx(1e6 / np.log(2.0), rel=1e-11)


def test_cli_norm_divergent_bracket_exits_two(capsys):
    assert cli_main(["norm", "orlicz:exp_minus_one", "[1e30]"]) == 2
    assert "2**64" in capsys.readouterr().err
    # the norm modular's closed form needs no bracket
    assert cli_main(["norm", "norm", "[1e30]"]) == 0
    assert capsys.readouterr().out == "1e+30\n"


@pytest.mark.parametrize("modular", ["norm", "orlicz:square", "power:3", "orlicz:linear"])
def test_cli_norm_overflowing_closed_form_exits_two(modular, capsys):
    # the norm of [1e308, 1e308] is finite; that of [1.5e308, 1.5e308] is not
    vector = "[1.5e308, 1.5e308]" if modular == "norm" else "[1e308, 1e308]"
    assert cli_main(["norm", modular, vector]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "overflows float64" in captured.err


@pytest.mark.parametrize("modular, vector", [
    ("power:abc", "[1, 2]"), ("power:inf", "[1, 2]"), ("power:nan", "[1, 2]"),
    ("norm", "[NaN, 1]"), ("norm", "[Infinity]"), ("power:2:3", "[1]"), ("norm:x", "[1]"),
    ("norm", "[true, 1]"),
])
def test_cli_norm_refuses_what_a_config_refuses(modular, vector, capsys):
    assert cli_main(["norm", modular, vector]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "overflows" not in captured.err


def test_cli_norm_entry_past_the_digit_limit_exits_two(capsys):
    assert cli_main(["norm", "norm", "[" + "9" * 5000 + "]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: vector ") and "Traceback" not in captured.err
    assert "9999" not in captured.err


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


def test_repeated_cli_calls_in_one_process_each_get_their_own_arguments(tmp_path, capsys):
    # the parser is shared by every call: nothing of one call's arguments
    # may reach the next
    name = "superstability-commutator"
    default_seed = builtin_scenarios()[name]["probes"]["seed"]
    seeds = []
    for extra in (["--seed-override", "7"], []):
        out = tmp_path / "report.jsonl"
        assert cli_main(["run", name, *extra, "--out", str(out), "--quiet"]) == 0
        seeds.append(json.loads(out.read_text().splitlines()[0])["seed"])
    assert seeds == [7, default_seed]
    assert capsys.readouterr() == ("", "")
    assert cli_main(["norm", "power:2", "[3, [0, 4]]"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(5.0, abs=1e-9)
    with pytest.raises(SystemExit) as exc:
        cli_main(["run"])
    assert exc.value.code == 2
    assert "the following arguments are required: config" in capsys.readouterr().err
    assert cli_main(["list"]) == 0
    assert capsys.readouterr().out.split() == list_builtin_scenarios()


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


def test_cli_run_without_out_or_quiet_writes_the_report_to_stdout(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    assert cli_main(["run", "superstability-commutator", "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr() == ("", "")
    assert cli_main(["run", "superstability-commutator"]) == 0
    printed = capsys.readouterr()

    def undated(text):  # the header's created_at differs from run to run
        header, *body = text.splitlines()
        return {**json.loads(header), "created_at": None}, body

    assert undated(printed.out) == undated(out.read_text())
    assert re.fullmatch(r"# superstability-commutator: exit=0 records=1032 failures=0 "
                        r"elapsed=\d+\.\d\ds\n", printed.err)


def _failed_lines(path):
    docs = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    return sum(1 for doc in docs if not doc["pass"] and not doc.get("advisory", False))


@pytest.mark.parametrize("name", sorted(builtin_scenarios()) + ["missing.json"])
def test_cli_failure_count_is_the_per_line_count(name, tmp_path, capsys):
    # the stderr summary counts failed asserted lines from each block's
    # count; the written report counts them line by line
    out = tmp_path / "report.jsonl"
    source = str(tmp_path / name) if name.endswith(".json") else name
    code = cli_main(["run", source, "--out", str(out)])
    err = capsys.readouterr().err
    failures = int(re.search(r" failures=(\d+) ", err).group(1))
    assert failures == _failed_lines(out)
    assert (failures > 0) == (code != 0)
    if name in ("lemma-falsifier", "missing.json"):
        assert failures > 0


def test_cli_run_config_file(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(small_stability_config()))
    assert cli_main(["run", str(path), "--quiet"]) == 0


def test_cli_run_missing_config_exits_two(tmp_path):
    assert cli_main(["run", str(tmp_path / "nope.json"), "--quiet"]) == 2


def test_cli_run_directory_config_exits_two(tmp_path, capsys):
    # reading a directory raised IsADirectoryError: a traceback and exit 1
    out = tmp_path / "report.jsonl"
    assert cli_main(["run", str(tmp_path), "--out", str(out), "--quiet"]) == 2
    lines = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert len(lines) == 2 and lines[1]["stage"] == "config" and not lines[1]["pass"]
    assert repr(str(tmp_path)) in lines[1]["payload"]["error"]
    assert "Traceback" not in capsys.readouterr().err


def test_cli_run_out_into_a_missing_directory_exits_two_before_the_run(
        tmp_path, capsys, monkeypatch):
    # the report was opened after the whole run, and its FileNotFoundError
    # was a traceback and exit 1
    monkeypatch.setattr(modstab.cli, "run_scenario", lambda *a, **k: pytest.fail("ran"))
    out = tmp_path / "missing" / "r.jsonl"
    assert cli_main(["run", "superstability-commutator", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write the report to {str(out)!r}")
    assert "Traceback" not in err


def test_cli_run_report_that_fills_the_disk_exits_two(tmp_path, capsys, monkeypatch):
    # a write that fails after the run was a traceback and exit 1; the bytes
    # written before it are flushed again on close, and fail there too
    def full(header, records, fh):
        fh.write("{")
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(modstab.cli, "write_report", full)
    out = tmp_path / "r.jsonl"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_stability_config()))
    assert cli_main(["run", str(path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write the report to {str(out)!r}: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
def test_cli_run_out_dev_full_exits_two(capsys):
    # /dev/full refuses the truncation (EINVAL) and every write (ENOSPC)
    assert cli_main(["run", "superstability-commutator", "--out", "/dev/full", "--quiet"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: cannot write the report to '/dev/full': ")


def test_cli_run_report_replaces_its_own_config(tmp_path):
    # the report path is opened before the run, but the config it names is
    # read whole first, and the report then replaces it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_stability_config()))
    assert cli_main(["run", str(path), "--out", str(path), "--quiet"]) == 0
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["schema"] == SCHEMA and lines[1]["payload"]["config_name"] == "mini"


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


@pytest.mark.parametrize("name, error", [
    # every map value is finite, but the inequality's sums overflow:
    # calibration refuses, where theta would be inf
    ("corollary-ascending-p05",
     "the inequality's defect overflows float64 on the calibration family; "
     "no theta can calibrate it"),
    ("corollary-descending-p2", "map evaluation is not finite at batch row 3"),
    ("inequality-B-descending", "map evaluation is not finite at batch row 1"),
], ids=["ascending", "descending", "B-descending"])
def test_an_epsilon_of_1e308_exits_two_without_a_warning(name, error):
    cfg = builtin_scenarios()[name]
    cfg["map"]["perturbation"]["epsilon"] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_scenario(cfg)
    assert result.exit_code == 2
    assert [(r.stage, r.payload) for r in result.records] == [("config", {"error": error})]


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


def _axioms_samples(key, value):
    cfg = json.loads(json.dumps(builtin_scenarios()["axioms-suite"]))
    cfg["samples"][key] = value
    return json.dumps(cfg)


def _iteration_value(key, value):
    cfg = json.loads(json.dumps(builtin_scenarios()["corollary-ascending-p05"]))
    cfg["iteration"][key] = value
    return json.dumps(cfg)


def _algebra(section):
    cfg = json.loads(json.dumps(builtin_scenarios()["superstability-commutator"]))
    cfg["algebra"] = section
    return json.dumps(cfg)


def _probes_radius(value):
    cfg = small_stability_config()
    cfg["probes"]["radius"] = value
    return json.dumps(cfg)


def _builtin_value(name, keys, value):
    """The builtin ``name`` with the value at the path ``keys`` replaced."""
    cfg = json.loads(json.dumps(builtin_scenarios()[name]))
    *path, last = keys
    section = cfg
    for key in path:
        section = section[key]
    section[last] = value
    return json.dumps(cfg)


MALFORMED_NAMES = {}  # config text -> what its record's error must name


def _misspelled(name, keys, typo, keep=False):
    """The builtin ``name`` with the last key of the path ``keys`` spelled
    ``typo`` (``keep``: the key stays, as if set twice); the record must name
    the typo and the key it misspells."""
    cfg = json.loads(json.dumps(builtin_scenarios()[name]))
    *path, last = keys
    section = cfg
    for key in path:
        section = section[key]
    section[typo] = section[last] if keep else section.pop(last)
    text = json.dumps(cfg)
    prefix = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")
    dot = prefix + "." if prefix else ""
    MALFORMED_NAMES[text] = (repr(dot + typo), repr(dot + last))
    return text


def _radius_past_float():
    text = _probes_radius(10**400)
    MALFORMED_NAMES[text] = ("probes.radius must be a finite number",)
    return text


def _naming(text, *parts):
    """The config ``text``, whose record's error must hold each of ``parts``."""
    MALFORMED_NAMES[text] = parts
    return text


MATRIX2_STRUCTURE = preset("matrix2").structure.real.ravel().tolist()


def _no_checks():
    cfg = json.loads(json.dumps(builtin_scenarios()["lemma-falsifier"]))
    cfg["checks"] = []
    text = json.dumps(cfg)
    MALFORMED_NAMES[text] = ("checks must name at least one",)
    return text


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        _malformed("probes", {"count": "abc"}),
        _no_perturbation_name(),
        _malformed("s", [0.5, "x"]),
        _malformed("probes", [1, 2]),
        _axioms_fixture_without_modular(),
        _axioms_samples("dim", -1),
        _axioms_samples("dim", 0),
        _axioms_samples("radius", float("nan")),
        _axioms_samples("radius", -1.0),
        _axioms_samples("radius", float("inf")),
        _probes_radius(float("nan")),
        _probes_radius(float("inf")),
        _malformed("probes", {"count": float("inf")}),
        _malformed("iteration", {"n_max": float("inf")}),
        _axioms_samples("dim", MAX_SAMPLE_DIM + 1),
        _axioms_samples("dim", 10**9),
        _iteration_value("n_max", 1100),
        _iteration_value("tol", float("nan")),
        _iteration_value("tol", float("inf")),
        _iteration_value("tol", 0.0),
        _iteration_value("magnitude_cap", float("nan")),
        _iteration_value("magnitude_cap", float("inf")),
        _iteration_value("magnitude_cap", -1.0),
        _algebra({"preset": "zero_mul", "dim": MAX_ALGEBRA_DIM + 1}),
        _algebra({"preset": "zero_mul", "dim": 10**9}),
        _algebra({"preset": "zero_mul", "dim": 0}),
        _algebra({"dim": MAX_ALGEBRA_DIM + 1, "structure": [0.0]}),
        _algebra({"dim": 10**9, "structure": []}),
        _algebra({"preset": "zero_mul", "dim": 2.5}),
        _algebra({"dim": 1.5, "structure": [0.0]}),
        _malformed("probes", {"count": 512.9}),
        _malformed("probes", {"count": "64"}),
        _malformed("probes", {"count": True}),
        _malformed("probes", {"count": 32, "seed": 5.5}),
        _malformed("probes", {"count": 32, "seed": "5"}),
        _iteration_value("n_max", 40.7),
        _iteration_value("n_max", "40"),
        _axioms_samples("dim", 3.9),
        _axioms_samples("count", "64"),
        _axioms_samples("seed", 5.5),
        _axioms_samples("dim", True),
        # a value_dim, integral or not, no longer has a map to size: refused by name
        _naming(_malformed("map", {"kernel": {"form": "tensor", "value_dim": 3.5,
                                              "tensor": [0.0] * 48}}),
                "map.kernel.value_dim"),
        # real and flag values: a bool, a string or a NaN or infinite number
        # is refused, where float() and bool() took them
        _builtin_value("superstability-commutator", ["psi", "theta"], float("nan")),
        _builtin_value("superstability-commutator", ["psi", "theta"], float("inf")),
        _builtin_value("corollary-descending-p2", ["modular", "p"], float("nan")),
        _builtin_value("superstability-commutator", ["s"], [float("nan"), 0.0]),
        _builtin_value("superstability-commutator", ["map", "kernel", "c"], [float("nan"), 0.0]),
        _builtin_value("superstability-commutator", ["s"], ["0.5", "0"]),
        _probes_radius("2"),
        _builtin_value("superstability-commutator", ["iteration", "tol"], True),
        _builtin_value("superstability-commutator", ["probes", "radius"], True),
        _builtin_value("corollary-ascending-p05", ["map", "perturbation", "epsilon"], "0.01"),
        _builtin_value("corollary-descending-p2", ["map", "perturbation", "p"], float("inf")),
        _builtin_value("corollary-ascending-p05", ["map", "perturbation", "boundary_safe"], 1),
        _builtin_value("superstability-commutator", ["psi", "p"], "0.5"),
        _builtin_value("superstability-commutator", ["psi", "L"], True),
        _iteration_value("magnitude_cap", "1e15"),
        _builtin_value("superstability-commutator", ["biderivation_assert_slot2"], 1),
        _builtin_value("superstability-commutator", ["s"], True),
        _algebra({"dim": 1, "structure": [True]}),
        _axioms_samples("radius", "1"),
        _builtin_value("axioms-suite", ["fixtures", 0, "check_delta2"], "yes"),
        _builtin_value("axioms-suite", ["fixtures", 0, "expect_violation"], "axiom_7"),
        _builtin_value("axioms-suite", ["fixtures", 3, "expect_violation"], ["axiom_i"]),
        # a misspelled key is refused, where the run ignored it
        _misspelled("corollary-ascending-p05", ["iteration", "n_max"], "n_maxx"),
        _misspelled("corollary-ascending-p05", ["iteration", "tol"], "tolerance"),
        _misspelled("corollary-ascending-p05", ["probes", "count"], "cuont"),
        _misspelled("superstability-commutator", ["psi", "theta"], "thetta"),
        _misspelled("corollary-ascending-p05", ["map", "perturbation", "epsilon"], "epsilonn",
                    keep=True),
        _misspelled("corollary-ascending-p05", ["modular", "kind"], "knid"),
        _misspelled("corollary-descending-p2", ["psi", "direction"], "drection"),
        _misspelled("axioms-suite", ["fixtures", 0, "check_delta2"], "check_delta"),
        # a run that checks nothing is refused, where it passed
        _misspelled("lemma-falsifier", ["checks"], "chekcs"),
        _no_checks(),
        # a negative seed reached numpy's generator, a traceback in an axioms run
        _axioms_samples("seed", -1),
        # json refuses an integer past int's digit limit with a ValueError that
        # is no JSONDecodeError: a traceback and exit 1
        _probes_radius(0.123456789).replace("0.123456789", "9" * 5000),
        # an integer past float range: float() raised an OverflowError whose
        # record named no field
        _radius_past_float(),
        # a field the run would ignore is refused, where it exited 0
        _naming(_builtin_value("superstability-commutator", ["algebra"],
                               {"preset": "matrix2", "dim": 3}), "algebra.dim"),
        # this ran matrix2, not the zero algebra its constants give
        _naming(_builtin_value("superstability-commutator", ["algebra"],
                               {"preset": "matrix2", "structure": [0.0] * 64}),
                "algebra.structure"),
        _naming(_builtin_value("superstability-commutator", ["algebra"],
                               {"preset": "zero_mul", "structure": [0.0] * 8}),
                "algebra.structure"),
        # the tensor form and its two fields are gone: each is refused by name
        _naming(_builtin_value("superstability-commutator", ["map", "kernel"], {"form": "tensor"}),
                "map.kernel.form", "'tensor'"),
        _naming(_builtin_value("superstability-commutator", ["map", "kernel"],
                               {"form": "commutator", "tensor": MATRIX2_STRUCTURE}),
                "map.kernel.tensor"),
        _naming(_builtin_value("superstability-commutator", ["map", "kernel"],
                               {"form": "commutator", "value_dim": 2}), "map.kernel.value_dim"),
        # every map vanishes on the axes, ψ has one form and the iteration
        # runs in ψ's direction: each field that said so is refused by name
        _naming(_builtin_value("superstability-commutator", ["map", "zero_boundary"], True),
                "'map.zero_boundary'"),
        _naming(_builtin_value("corollary-ascending-p05", ["psi", "form"], "power"),
                "'psi.form'"),
        _naming(_builtin_value("corollary-ascending-p05", ["iteration", "direction"], "ascending"),
                "'iteration.direction'"),
        # every modular is convex, so the claim is no key
        _naming(_builtin_value("superstability-commutator", ["modular", "convex"], True),
                "unknown config key 'modular.convex'"),
        _naming(_builtin_value("axioms-suite", ["fixtures", 2, "modular", "convex"], False),
                "unknown config key 'fixtures[2].modular.convex'"),
        # κ is 2 for every modular, so any other value is refused by name
        _naming(_builtin_value("corollary-ascending-p05", ["modular", "kappa"], 0.75),
                "modular.kappa must be at least 2.0, got 0.75"),
        _naming(_builtin_value("axioms-suite", ["fixtures", 0, "modular", "kappa"], 1.5),
                "fixtures[0].modular.kappa must be at least 2.0, got 1.5"),
        _naming(_builtin_value("corollary-descending-p2", ["modular", "kappa"], 3.0),
                "modular.kappa 3.0 exceeds the limit of 2.0"),
        # ρ̃'s weight follows the run's inequality and direction
        _naming(_builtin_value("inequality-B-descending", ["rho_tilde_weight"], "psi_x0_z0"),
                "unknown config key 'rho_tilde_weight'"),
        # the cross-field checks of the parse stage
        _naming(_builtin_value("superstability-commutator", ["psi"], None),
                "iteration requires an envelope"),
        _naming(_builtin_value("corollary-descending-p2", ["map", "perturbation", "p"], 0.5),
                "descending runs need a power_env exponent p > 1"),
        # a modular field the kind does not read
        *(_naming(_builtin_value("superstability-commutator", ["modular"], modular),
                  f"modular.{key} is read only with kind") for modular, key in [
            ({"kind": "norm", "phi": "exp_minus_one"}, "phi"), ({"kind": "norm", "p": 7.0}, "p"),
            ({"kind": "orlicz", "phi": "linear", "p": 3.0}, "p"),
            ({"kind": "power", "p": 1.0, "phi": "linear"}, "phi")]),
        _naming(_builtin_value("axioms-suite", ["fixtures", 0, "modular", "p"], 9.0),
                "fixtures[0].modular.p is read only with kind 'power', not with 'norm'"),
        _naming(_builtin_value("corollary-ascending-p05", ["map", "perturbation", "p"], 7.0),
                "map.perturbation.p is read only with name 'power_env', not with 'bounded_osc'"),
    ],
    ids=["json-list", "count-abc", "perturbation-no-name", "s-text", "probes-list",
         "fixture-no-modular",
         "samples-dim-negative", "samples-dim-zero", "samples-radius-nan",
         "samples-radius-negative", "samples-radius-inf", "probes-radius-nan",
         "probes-radius-inf", "count-inf", "n-max-inf", "samples-dim-past-limit",
         "samples-dim-1e9", "n-max-1100", "tol-nan", "tol-inf", "tol-zero", "magnitude-cap-nan",
         "magnitude-cap-inf", "magnitude-cap-negative", "algebra-dim-past-limit",
         "algebra-dim-1e9", "algebra-dim-zero", "structure-dim-past-limit", "structure-dim-1e9",
         "algebra-dim-2.5", "structure-dim-1.5", "count-512.9", "count-string", "count-bool",
         "probes-seed-5.5", "probes-seed-string", "n-max-40.7", "n-max-string",
         "samples-dim-3.9", "samples-count-string", "samples-seed-5.5", "samples-dim-bool",
         "value-dim-3.5", "psi-theta-nan", "psi-theta-inf", "modular-p-nan", "s-nan",
         "kernel-c-nan", "s-strings", "probes-radius-string", "tol-bool",
         "radius-bool", "epsilon-string", "perturbation-p-inf",
         "boundary-safe-int", "psi-p-string", "psi-L-bool", "magnitude-cap-string",
         "assert-slot2-int", "s-bool", "structure-entry-bool", "samples-radius-string",
         "check-delta2-string", "expect-violation-axiom-7", "expect-violation-list",
         "n-maxx", "tolerance", "cuont", "thetta", "epsilonn", "knid", "drection-descending",
         "check-delta", "chekcs", "checks-empty", "samples-seed-negative",
         "radius-5000-digits", "radius-10**400", "matrix2-with-dim", "matrix2-with-structure",
         "zero-mul-with-structure", "form-tensor",
         "commutator-with-tensor", "commutator-with-value-dim",
         "zero-boundary-key", "psi-form-key", "iteration-direction-key",
         "modular-convex-key", "fixture-convex-key", "kappa-0.75", "fixture-kappa-1.5",
         "kappa-3.0",
         "rho-tilde-weight-key",
         "iteration-without-psi", "descending-power-env-p-0.5", "norm-with-phi", "norm-with-p",
         "orlicz-with-p", "power-with-phi", "norm-fixture-with-p", "bounded-osc-with-p"],
)
def test_cli_run_malformed_config_exits_two(text, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scenarios, "calibrate_theta", lambda *a, **k: pytest.fail("calibrated"))
    monkeypatch.setattr(scenarios, "draw_axiom_samples", lambda *a, **k: pytest.fail("drew"))
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "report.jsonl"
    assert cli_main(["run", str(path), "--out", str(out), "--quiet"]) == 2
    lines = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert len(lines) == 2 and lines[0]["schema"] == SCHEMA
    assert lines[1]["stage"] == "config" and not lines[1]["pass"]
    for part in MALFORMED_NAMES.get(text, ()):
        assert part in lines[1]["payload"]["error"]
    assert "Traceback" not in capsys.readouterr().err


def test_explicit_structure_constants_run_as_their_preset():
    # matrix2's constants given as dim and structure: the same run, apart
    # from the config echo's algebra name
    want = [r.to_json() for r in run_scenario("corollary-ascending-p05").records]
    cfg = builtin_scenarios()["corollary-ascending-p05"]
    cfg["algebra"] = {"dim": 4, "structure": MATRIX2_STRUCTURE}
    result = run_scenario(cfg)
    got = [r.to_json() for r in result.records]
    assert result.exit_code == 0 and len(got) == len(want) == 1117
    assert [i for i, (a, b) in enumerate(zip(got, want)) if a != b] == [0]
    assert got[0] == want[0].replace('"algebra": "matrix2"', '"algebra": "dim-4"')


@pytest.mark.parametrize("section, key, value", [
    ("probes", "count", 32.0), ("probes", "seed", 3.0), ("iteration", "n_max", 40.0),
])
def test_whole_float_config_integers_run_as_ints(section, key, value):
    cfg = small_stability_config()
    want = run_scenario(cfg)
    cfg[section][key] = value
    got = run_scenario(cfg)
    assert got.exit_code == want.exit_code == 0
    assert [r.to_json() for r in got.records] == [r.to_json() for r in want.records]


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


def test_echoed_weight_follows_the_inequality_and_direction():
    # rho-tilde weighs by psi(x,0) psi(z,0) exactly when a descending run
    # checks inequality B, whose substitution zeroes y; every other run takes
    # A's tuple y = x and psi(x,x) psi(z,0)
    identity = runpy.run_path(str(Path(__file__).resolve().parents[1] / "benchmarks"
                                  / "identity_configs.py"))["identity_configs"]()
    both_inequalities = builtin_scenarios()["corollary-descending-p2"]
    both_inequalities["checks"] = ["inequality_A", "inequality_B", "telescoping"]
    want = {"corollary-ascending-p05": "psi_xx_z0", "corollary-descending-p2": "psi_xx_z0",
            "inequality-B-descending": "psi_x0_z0", "superstability-commutator": "psi_xx_z0",
            "lemma-falsifier": "psi_xx_z0"}
    assert set(want) == {n for n, c in builtin_scenarios().items() if c.get("kind") != "axioms"}
    sources = [(name, name, weight) for name, weight in want.items()] + [
        ("ascending-complex-c-B", identity["ascending-complex-c-B"], "psi_xx_z0"),
        ("descending A and B", both_inequalities, "psi_x0_z0")]
    for label, source, weight in sources:
        result = run_scenario(source, probes_override=17)
        [echo] = [r.payload for r in result.records if r.stage == "config"]
        assert echo["weight"] == weight, label


def test_ascending_builtin_iterates_once(monkeypatch):
    # the uniqueness check reads its reruns off the run's one iteration
    stabilize_module = sys.modules["modstab.stabilize"]
    original = stabilize_module.stabilize
    calls = []

    def counted(*args, **kwargs):
        calls.append(sorted(kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(stabilize_module, "stabilize", counted)
    monkeypatch.setattr(scenarios, "stabilize", counted)
    result = run_scenario("corollary-ascending-p05")
    assert result.exit_code == 0
    # the iteration is told nothing of the checks the run makes after it
    assert calls == [["theorem"]]
    [rep] = [r.payload for r in result.records if r.payload.get("check") == "uniqueness"]
    assert [v[1] for v in rep["variants"]] == [result.context["outcome"].N_converged] * 5


def test_stability_bound_evaluates_no_map_block_again(monkeypatch):
    # d(x, z) and its limit D(x, z) are levels 0 and N of the run's table:
    # the check makes no map call (test_spec compares its records with a
    # fresh evaluation of both)
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


def _with_count(where, count):
    if where == "probes.count":
        cfg = small_stability_config()
        cfg["probes"]["count"] = count
    else:
        cfg = json.loads(json.dumps(builtin_scenarios()["axioms-suite"]))
        cfg["samples"]["count"] = count
    return cfg


@pytest.mark.parametrize(
    "where, count",
    [
        pytest.param("--probes", 10**11, id="--probes"),
        pytest.param("probes.count", config.MAX_SAMPLE_COUNT + 1, id="probes.count"),
        pytest.param("samples.count", 10**11, id="samples.count"),
        pytest.param("--probes", 0, id="--probes-zero"),
        pytest.param("--probes", -5, id="--probes-negative"),
        pytest.param("samples.count", 0, id="samples.count-zero"),
    ],
)
def test_sample_count_past_the_limit_exits_two_before_drawing(where, count, tmp_path,
                                                              monkeypatch, capsys):
    def refuse(*args, **kwargs):
        pytest.fail("drew samples")

    monkeypatch.setattr(scenarios, "draw_probes", refuse)
    monkeypatch.setattr(scenarios, "draw_axiom_samples", refuse)
    out = tmp_path / "report.jsonl"
    if where == "--probes":
        # the axioms suite draws no probes, so a count below 1 reached its checks
        scenario = "lemma-falsifier" if count > 0 else "axioms-suite"
        argv = ["run", scenario, "--probes", str(count)]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_with_count(where, count)))
        argv = ["run", str(path)]
    assert cli_main(argv + ["--out", str(out), "--quiet"]) == 2
    lines = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert len(lines) == 2 and lines[1]["stage"] == "config" and not lines[1]["pass"]
    want = "exceeds the limit of 100000" if count > 0 else "must be at least 1"
    assert want in lines[1]["payload"]["error"]
    assert "Traceback" not in capsys.readouterr().err


def test_sample_count_at_the_limit_is_accepted():
    limit = config.MAX_SAMPLE_COUNT
    cfg = small_stability_config(probes={"count": limit})
    assert config.parse(cfg)["probes"]["count"] == limit
    cfg["probes"]["count"] = 10**12  # --probes replaces it unread
    assert config.parse(cfg, count=limit)["probes"]["count"] == limit


def _orlicz_luxemburg_config(phi="linear"):
    cfg = json.loads(json.dumps(builtin_scenarios()["corollary-descending-p2"]))
    cfg["modular"] = {"kind": "orlicz", "phi": phi, "kappa": 2.0}
    cfg["psi"]["theta"] = 1.0
    cfg["probes"]["count"] = 32
    return cfg


def test_orlicz_run_bisects_each_distinct_row_once(monkeypatch):
    # exp_minus_one has no closed form, so psi's norm runs the memo and the
    # bisection behind it (test_spec compares the run with one without the memo)
    import modstab.modular

    calls, bisected = [], []
    original = modstab.modular.luxemburg_norm

    def counted(m, x, *args, **kwargs):
        calls.append(x)
        bisected.extend(r.tobytes() for r in np.ascontiguousarray(x, dtype=np.complex128))
        return original(m, x, *args, **kwargs)

    monkeypatch.setattr(modstab.modular, "luxemburg_norm", counted)
    run_scenario(_orlicz_luxemburg_config(phi="exp_minus_one"))
    assert 0 < len(calls) <= 6
    assert len(bisected) == len(set(bisected))


@pytest.mark.parametrize("seed", [None, 7, 4242])
def test_orlicz_psi_law_is_exact_with_the_closed_form_norm(seed):
    # the linear preset is 1-homogeneous, so psi's norm is the l1 norm to
    # rounding and the scaling law holds without the bisection's 1e-12 slack
    cfg = _orlicz_luxemburg_config()
    values = config.parse(cfg)
    m = values["modular"]
    psi, _ = scenarios.build_psi(values["psi"], ModularSpec(m["kind"], m["p"], m["phi"]))
    result = run_scenario(cfg, seed_override=seed)
    [law] = [r.payload for r in result.records if r.payload.get("check") == "psi_law"]
    assert result.exit_code == 0
    assert law["law_margin"] <= 1e-15
    assert law["decay_ratio"] == pytest.approx(psi.L, rel=1e-15)


def test_orlicz_run_tabulates_its_levels_in_one_map_call(monkeypatch):
    # 32 probes: levels 0..40 are 1,312 rows, within one block of BLOCK_ROWS
    from modstab.bimaps import BiMap
    from modstab.stabilize import LevelTable

    tables, widths = [], []
    original_call = BiMap.__call__

    class Recorded(LevelTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    def counted_call(self, x, z):
        widths.append(len(x))
        return original_call(self, x, z)

    monkeypatch.setattr(scenarios, "LevelTable", Recorded)
    monkeypatch.setattr(BiMap, "__call__", counted_call)
    result = run_scenario(_orlicz_luxemburg_config())
    assert result.exit_code == 0
    [table] = tables
    # the run read all 41 levels: reading them again makes no map call
    n_calls = len(widths)
    for n in range(41):
        table[n]
    assert len(widths) == n_calls and widths.count(41 * 32) == 1


STABILITY_BUILTINS = [name for name, cfg in builtin_scenarios().items()
                      if cfg.get("kind", "stability") == "stability"]


@pytest.mark.parametrize("name", STABILITY_BUILTINS)
def test_no_map_call_is_wider_than_a_row_block(name, monkeypatch):
    # calibration's random family and the linearity stacks go through the
    # map in blocks of at most BLOCK_ROWS rows
    from modstab.bimaps import BiMap

    widths = []
    original_call = BiMap.__call__

    def counted_call(self, x, z):
        widths.append(len(x))
        return original_call(self, x, z)

    monkeypatch.setattr(BiMap, "__call__", counted_call)
    result = run_scenario(name)
    assert result.exit_code == (1 if name == "lemma-falsifier" else 0)
    assert widths and max(widths) <= BLOCK_ROWS


def test_calibrated_run_evaluates_its_probe_parts_once(monkeypatch):
    # calibration and check_inequality_A share one inequality_parts call on
    # the run's own probes; the random family adds one call per block
    verify = sys.modules["modstab.verify"]
    original = verify.inequality_parts
    rows = []

    def counted(f, rho_fn, s, X, *args, **kwargs):
        rows.append(len(X))
        return original(f, rho_fn, s, X, *args, **kwargs)

    monkeypatch.setattr(verify, "inequality_parts", counted)
    monkeypatch.setattr(scenarios, "inequality_parts", counted)
    result = run_scenario("corollary-ascending-p05")
    assert result.exit_code == 0
    n_probes = len(result.context["probes"])
    extra = scenarios.CALIBRATION_EXTRA_COUNT
    assert rows == [n_probes] + [b.stop - b.start for b in row_blocks(extra)]
    assert sum(rows) == n_probes + extra
