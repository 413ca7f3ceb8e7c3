"""Every verdict of a stability run is one ``report.CheckResult``, from the
checker to the report line, and each of its rows passes iff lhs - rhs <= tol
on the result's own columns; over every builtin and the failing variants
of benchmarks/failing_configs.py."""

import importlib.util
import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from modstab import scenarios
from modstab.report import CheckResult
from modstab.scenarios import builtin_scenarios, run_scenario
from modstab.stabilize import LevelDiag

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "failing_configs.py"
_spec = importlib.util.spec_from_file_location("failing_configs", _PATH)
failing_configs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(failing_configs)

CONFIGS = {
    **{name: cfg for name, cfg in builtin_scenarios().items() if cfg.get("kind") != "axioms"},
    **failing_configs.failing_configs(),
}
# the failed lines that count toward the exit code, per check
FAILURES = {
    "lemma-falsifier": {"inequality_A": 46},
    "ascending-conjugate-product": {"first_slot_linearity": 26},
    "superstability-bounded-osc": {"superstability": 1},
    "ascending-psi-L-0.1": {"psi_law": 1},
    "superstability-product-radius-4": {"biderivation_slot1": 245, "biderivation_slot2": 237},
    "descending-radius-16": {"stabilize": 1, "biadditivity_slot1": 1, "biadditivity_slot2": 1},
}


def rule(result):
    """Each row's pass bit by lhs - rhs <= tol, in Python floats: a NaN fails."""
    rhs = np.broadcast_to(result.rhs, result.lhs.shape).tolist()
    return [lhs - r <= result.tol for lhs, r in zip(result.lhs.tolist(), rhs)]


def test_the_failing_configs_are_named_and_listed():
    assert set(failing_configs.failing_configs()) <= set(FAILURES)
    assert all(name == cfg["name"] for name, cfg in CONFIGS.items())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_verdict_is_one_check_result_passing_by_the_one_rule(name, monkeypatch):
    returned = []  # (check, what its _CHECKS entry returned)
    for key, check in list(scenarios._CHECKS.items()):
        def recorded(run, _check=check, _key=key):
            out = _check(run)
            returned.append((_key, out))
            return out

        monkeypatch.setitem(scenarios._CHECKS, key, recorded)
    cfg = CONFIGS[name]
    result = run_scenario(cfg)

    halted = "psi_law" in FAILURES.get(name, {})
    assert [key for key, _ in returned] == ([] if halted else cfg["checks"])
    for key, out in returned:
        assert type(out) is list and out and all(type(r) is CheckResult for r in out), key
    results = [it for it in result.records.items if isinstance(it, CheckResult)]
    assert [r for key, out in returned for r in out] == [
        r for r in results if r.check not in ("psi_law", "stabilize")]
    names = [r.check for r in results]
    assert names.count("psi_law") == (cfg.get("psi") is not None)
    assert names.count("stabilize") == (cfg.get("iteration") is not None and not halted)
    # the config echo and the iteration's levels are the only other lines
    others = [it for it in result.records.items if not isinstance(it, CheckResult)]
    assert {r.stage for r in others} <= {"config", "iterate"}

    failed = Counter()
    for r in results:
        want = rule(r)
        assert r.passed.tolist() == want, r.check
        assert [row.passed for row in r] == want, r.check
        assert all(row.scenario == name and row.payload["check"] == r.check for row in r)
        if not r.advisory:
            failed[r.check] += want.count(False)
    assert {k: v for k, v in failed.items() if v} == FAILURES.get(name, {})
    assert result.exit_code == (1 if name in FAILURES else 0)


def test_telescoping_passes_a_level_iff_both_its_margins_pass():
    # the row's lhs is the larger margin, and a NaN in either fails the row
    nan = float("nan")
    pairs = [(nan, 0.0), (0.0, nan), (0.0, 0.0), (2e-9, 0.0), (0.0, 2e-9), (-1.0, 1e-9)]
    levels = [LevelDiag(n, 0.0, 0.0, k, f) for n, (k, f) in enumerate(pairs, 1)]
    [result] = scenarios._telescoping(SimpleNamespace(outcome=SimpleNamespace(levels=levels)))
    assert result.passed.tolist() == [k <= 1e-9 and f <= 1e-9 for k, f in pairs]
    rows = [[r.payload["level"], r.payload["kappa_margin"], r.payload["final_margin"]]
            for r in result]
    assert json.dumps(rows) == json.dumps([[n, k, f] for n, (k, f) in enumerate(pairs, 1)])


@pytest.mark.parametrize("estimate", [0.5, 2.0, float("inf"), float("nan")])
def test_bounded_orbit_passes_iff_the_estimate_is_at_most_the_cap(estimate, monkeypatch):
    monkeypatch.setattr(scenarios, "bounded_orbit_estimate", lambda *a: estimate)
    run = SimpleNamespace(outcome=SimpleNamespace(N_converged=0, weights=None),
                          table=[None], rho_fn=None, psi=SimpleNamespace(L=0.5))
    [result] = scenarios._bounded_orbit(run)
    cap = 1.0 / (1.0 - 0.5) + 1e-6
    assert result[0].payload == {"check": "bounded_orbit", "estimate": estimate, "cap": cap}
    assert result[0].passed == (estimate <= cap)
