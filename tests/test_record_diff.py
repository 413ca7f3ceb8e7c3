import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "record_diff.py"
_spec = importlib.util.spec_from_file_location("record_diff", _PATH)
record_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_diff)


def _report(path, created_at, records):
    header = {"schema": "modstab-report/1", "created_at": created_at}
    lines = [json.dumps(header)] + [json.dumps(r, sort_keys=True) for r in records]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _rec(scenario, passed, **payload):
    return {"scenario": scenario, "stage": "check", "pass": passed, "payload": payload}


BASE = [
    _rec("s1", True, margin=1.0, rows=[0.5, 2.0], witness=3),
    _rec("s1", True, margin=-2.0, name="x"),
    _rec("s2", False, margin=0.25),
]


def test_identical_payloads_ignore_headers(tmp_path, capsys):
    a = _report(tmp_path / "a.jsonl", "2020-01-01", BASE)
    b = _report(tmp_path / "b.jsonl", "2021-06-30", BASE)
    assert record_diff.main([a, b]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split() == ["s1", "2/2", "0"]
    assert out[2].split() == ["s2", "1/1", "0"]


def test_float_change_is_reported_without_failing(tmp_path, capsys):
    moved = json.loads(json.dumps(BASE))
    moved[0]["payload"]["rows"][1] = 2.0 + 3e-15
    moved[1]["payload"]["margin"] = -2.5
    a = _report(tmp_path / "a.jsonl", "t0", BASE)
    b = _report(tmp_path / "b.jsonl", "t1", moved)
    assert record_diff.main([a, b]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split() == ["s1", "0/2", "0.5"]
    assert out[2].split() == ["s2", "1/1", "0"]


def test_pass_flip_exits_one(tmp_path, capsys):
    flipped = json.loads(json.dumps(BASE))
    flipped[2]["pass"] = True
    a = _report(tmp_path / "a.jsonl", "t0", BASE)
    b = _report(tmp_path / "b.jsonl", "t0", flipped)
    assert record_diff.main([a, b]) == 1
    assert "pass bit differs at record 2 (s2)" in capsys.readouterr().out


def test_record_count_mismatch_exits_one(tmp_path, capsys):
    a = _report(tmp_path / "a.jsonl", "t0", BASE)
    b = _report(tmp_path / "b.jsonl", "t0", BASE[:2])
    assert record_diff.main([a, b]) == 1
    assert "record counts differ: 3 vs 2" in capsys.readouterr().out


def test_max_change_handles_nan_and_types():
    nan = float("nan")
    assert record_diff.max_change({"a": nan}, {"a": nan}) == 0.0
    assert record_diff.max_change([1.0, nan], [1.0, 0.0]) == float("inf")
    assert record_diff.max_change({"a": True, "b": "x"}, {"a": False, "b": "y"}) == 0.0
