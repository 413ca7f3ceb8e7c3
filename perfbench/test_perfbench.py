"""Self-checks of the benchmark: the tracer sees every layer it claims to,
its self times add up, and the reference check catches a changed verdict.

    PYTHONPATH=src python3 -m pytest -q perfbench

Not part of the tier-1 suite (pytest's testpaths is ``tests``).
"""

import argparse
import importlib
import shutil
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import tracer as tracer_mod  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402

# Self times exclude the wrappers' bookkeeping, which is timed separately:
# self + bookkeeping must match the traced wall time to SUM_MARGIN, and self
# times alone must cover at least MIN_ATTRIBUTED of it (the rest is the
# bookkeeping, largest on orlicz-luxemburg with ~1e5 wrapped calls per op).
SUM_MARGIN = 0.02
MIN_ATTRIBUTED = 0.6


@pytest.fixture(scope="module")
def work_dir():
    run.WORK_DIR.mkdir(parents=True, exist_ok=True)
    yield run.WORK_DIR
    shutil.rmtree(run.WORK_DIR, ignore_errors=True)
    try:
        run.WORK_DIR.parent.rmdir()
    except OSError:
        pass


@pytest.fixture(scope="module")
def traced_runs(work_dir):
    """One traced pass (shortest run) of every workload at the default seed."""
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        args = argparse.Namespace(seed=0, seconds=0.0)
        out[name] = run.traced(workload, args)
    return out


def test_no_stale_binding_survives_install():
    t = tracer_mod.Tracer()
    originals = {name: orig for name, _, _, orig in t.targets()}
    loaded = [m for n, m in sys.modules.items() if n == "modstab" or n.startswith("modstab.")]
    t.install()
    try:
        for mod in loaded:
            for key, value in vars(mod).items():
                for name, orig in originals.items():
                    assert value is not orig, f"{mod.__name__}.{key} still binds unwrapped {name}"
        scenarios = importlib.import_module("modstab.scenarios")
        assert scenarios.stabilize.__wrapped__ is originals["stabilize.stabilize"]
        assert scenarios.eval_modular.__wrapped__ is originals["modular.eval_modular"]
    finally:
        t.uninstall()
    assert importlib.import_module("modstab.scenarios").stabilize is originals["stabilize.stabilize"]
    bimaps = importlib.import_module("modstab.bimaps")
    assert bimaps.BiMap.__call__ is originals["bimaps.BiMap"]


def test_targets_cover_every_module_and_both_call_methods():
    names = {name for name, *_ in tracer_mod.Tracer().targets()}
    for short in tracer_mod.MODULES:
        assert any(n.startswith(f"{short}.") for n in names), short
    assert {"bimaps.BiMap", "bimaps.PsiEnvelope", "cli.main", "_kernels.batch_mul"} <= names


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_required_span_is_hit(traced_runs, name):
    client, metrics, info, ok = traced_runs[name]
    assert ok and info["spans_missing"] == []
    assert client.failed == 0
    assert metrics["report.write_report.total_s"][0] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_self_times_sum_to_traced_wall(traced_runs, name):
    _, metrics, info, _ = traced_runs[name]
    assert abs(info["self_plus_bookkeeping_over_wall"] - 1.0) <= SUM_MARGIN
    assert MIN_ATTRIBUTED <= metrics["trace.attributed_ratio"][0] <= 1.0


def test_layer_split_matches_the_workload_design(traced_runs):
    for name in ("ascending-commutator", "descending-pair"):
        top = traced_runs[name][2]["top_self_s"]
        assert max(top, key=top.get) == "_kernels.batch_mul", (name, top)
    top = traced_runs["orlicz-luxemburg"][2]["top_self_s"]
    modular = sum(v for k, v in top.items() if k.startswith("modular."))
    assert modular > 0.5 * sum(top.values()), top
    asc = traced_runs["ascending-commutator"][1]
    assert asc["stabilize.check_uniqueness.total_s"][0] > 0
    assert traced_runs["orlicz-luxemburg"][1]["modular.luxemburg_norm.calls"][0] > 0


def test_per_layer_metric_names_match_benchmark_json(traced_runs):
    import json

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, (_, metrics, _, _) in traced_runs.items():
        assert {k: u for k, (_, u) in metrics.items()} == declared, name


def test_reference_check_catches_changed_verdicts():
    ref = verdicts.load_reference()["lemma-falsifier"]
    good = {"failed": dict(ref["failed"]["0"]), "n_converged": None, "theta": None}
    assert verdicts.mismatches(ref, 1, good, 0) == []
    assert verdicts.mismatches(ref, 0, good, 0)  # falsifier stopped failing
    assert verdicts.mismatches(ref, 1, {**good, "failed": {}}, 0)
    asc = verdicts.load_reference()["corollary-ascending-p05"]
    v = {"failed": {}, "n_converged": asc["n_converged"], "theta": asc["theta"] * (1 + 1e-6)}
    assert verdicts.mismatches(asc, 0, v, 0)
    assert verdicts.mismatches(asc, 0, v, 1) == []  # theta is pinned at the default seed only


def test_tail_leaves_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10) and pct == 90.0
    value, pct, beyond = run.tail([3.0, 1.0, 2.0])
    assert value == 2.0  # too few samples: falls back to the median


def test_exits_nonzero_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "light-catalog", "--seconds", "1"]) == 2
