"""Every verdict of every run is one ``report.CheckResult``, from the
checker to the report line, and each of its rows passes iff lhs - rhs <= tol
on the result's own columns; over every builtin and the failing variants
of benchmarks/failing_configs.py, stability and axioms runs alike."""

import importlib.util
import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import modstab.modular
from modstab import scenarios, verify
from modstab.report import CheckResult, ReportRecord
from modstab.scenarios import builtin_scenarios, run_scenario
from modstab.theorem import THEOREMS

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "failing_configs.py"
_spec = importlib.util.spec_from_file_location("failing_configs", _PATH)
failing_configs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(failing_configs)

ALL_CONFIGS = {**builtin_scenarios(), **failing_configs.failing_configs()}
CONFIGS = {name: cfg for name, cfg in ALL_CONFIGS.items() if cfg.get("kind") != "axioms"}
AXIOMS_CONFIGS = {name: cfg for name, cfg in ALL_CONFIGS.items() if cfg.get("kind") == "axioms"}
# the failed lines that count toward the exit code, per check
FAILURES = {
    "lemma-falsifier": {"inequality_A": 46},
    "ascending-conjugate-product": {"first_slot_linearity": 26},
    "superstability-bounded-osc": {"superstability": 1},
    "ascending-psi-L-0.1": {"psi_law": 1},
    "superstability-product-radius-4": {"biderivation_slot1": 245, "biderivation_slot2": 237},
    "descending-radius-16": {"stabilize": 1, "biadditivity_slot1": 1, "biadditivity_slot2": 1},
    "ascending-theta-0.001": {"inequality_A": 374, "stability_bound": 175, "telescoping": 29,
                              "bounded_orbit": 1},
    "descending-theta-0.005": {"inequality_A": 507, "telescoping": 29},
    "inequality-B-theta-0.001": {"inequality_B": 422, "stability_bound": 511, "telescoping": 29},
    "ascending-magnitude-cap-1e6": {},  # its failed line is the iteration's abort record
    "axioms-kappa-dead-zone": {"delta2": 2, "modular_axiom": 1},
}
# the runs that end before their checks: a failed psi law, an iteration abort
HALTED = ("ascending-psi-L-0.1", "ascending-magnitude-cap-1e6")


def rule(result):
    """Each row's pass bit by lhs - rhs <= tol, in Python floats: a NaN fails."""
    rhs = np.broadcast_to(result.rhs, result.lhs.shape).tolist()
    return [lhs - r <= result.tol for lhs, r in zip(result.lhs.tolist(), rhs)]


def test_the_failing_configs_are_named_and_listed():
    assert set(failing_configs.failing_configs()) <= set(FAILURES)
    assert all(name == cfg["name"] for name, cfg in ALL_CONFIGS.items())
    assert sorted(AXIOMS_CONFIGS) == ["axioms-kappa-dead-zone", "axioms-suite"]


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

    halted = name in HALTED
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


@pytest.mark.parametrize("seed", [None, 7, 4242])
@pytest.mark.parametrize("name", sorted(AXIOMS_CONFIGS))
def test_every_axioms_verdict_is_one_check_result_passing_by_the_one_rule(name, seed):
    result = run_scenario(AXIOMS_CONFIGS[name], seed_override=seed)
    echo, *results = result.records.items
    assert type(echo) is ReportRecord and echo.stage == "config"
    assert results and all(type(r) is CheckResult and len(r) == 1 for r in results)
    assert result.context == {}

    failed = Counter()
    for r in results:
        want = rule(r)
        assert r.passed.tolist() == want and [row.passed for row in r] == want, r.check
        [row] = r
        assert row.scenario == name and row.payload["check"] == r.check
        failed[r.check] += want.count(False)
    assert {k: v for k, v in failed.items() if v} == FAILURES.get(name, {})
    assert result.exit_code == (1 if name in FAILURES else 0)


_EXPECT_III = {
    "name": "expect-iii", "kind": "axioms", "samples": {"count": 1, "dim": 1, "seed": 3},
    "fixtures": [{"label": "f", "modular": {"kind": "orlicz", "phi": "square"},
                  "expect_violation": "axiom_iii"}],
}


@pytest.mark.parametrize("margin", [float("nan"), -0.0, 1e-12, np.nextafter(1e-12, np.inf),
                                    float("inf"), float("-inf")])
def test_an_expected_violation_passes_iff_its_margin_exceeds_tol(margin, monkeypatch):
    # rho is 0 on x, y and zeta x and ``margin`` on the combination, so axiom
    # iii's margin rho(combo) - (rho(x) + rho(y)) is ``margin`` itself; the
    # remark properties' five evaluations are 0, so their margins are 0
    calls = iter([0.0, 0.0, 0.0, margin] + [0.0] * 5)
    monkeypatch.setattr(modstab.modular, "eval_modular", lambda m, x: np.array([next(calls)]))
    result = run_scenario(_EXPECT_III)
    [row] = [r for r in result.records if r.payload.get("axiom") == "iii"]
    assert json.dumps(row.payload["margin"]) == json.dumps(margin)
    assert row.payload["expected_violation"] is True and row.payload["witness"] == 0
    # caught iff the axiom's margin exceeds its tol: a NaN margin fails its
    # axiom's own check and is not a caught violation either
    assert row.passed == (margin > 1e-12)
    checks = [r.payload.get("axiom", r.payload["check"]) for r in result.records[1:]]
    assert checks == ["i", "ii", "iii", "iii_convex", "remark_properties"]


class _Levels:
    """A level table on one probe whose level l > 0 holds ``values[l - 1]``
    and level 0 holds 0, all in one block."""

    def __init__(self, values):
        self.stack = np.array([0.0, *values], dtype=complex)[:, None, None]
        probes = SimpleNamespace(x=np.ones((1, 1), dtype=complex), z=np.ones((1, 1), dtype=complex))
        self.cfg = SimpleNamespace(direction="ascending", probes=probes)

    def __getitem__(self, level):
        return self.stack[level]

    def span(self, first, last):
        yield first, self.stack[first:last + 1]


class _UnitPsi:
    """psi = 1 on every row, scaling in ``_Levels``' direction."""

    direction = "ascending"

    def __call__(self, a, b):
        return np.ones(len(a))


def test_telescoping_passes_a_level_iff_both_its_margins_pass(monkeypatch):
    # the row's lhs is the larger margin, and a NaN in either fails the row:
    # with psi = 1, rho the real part and the majorants and the bound set
    # here, level l's margins are defect_l - majorant_l and defect_l - bound
    nan, e29, e31 = float("nan"), 2.0**-29, 2.0**-31  # 2^-29 > 1e-9 > 2^-31
    defects = [nan, 1.0, 1.0, 1.0, 1.0 + e29, 1.0 + e31]
    majorants = [0.0, nan, 1.0, 1.0 - e29, 1.0 + e29, 2.0 + e31]
    monkeypatch.setattr(verify, "_majorants", lambda theorem, terms: np.array(majorants)[:, None])
    run = SimpleNamespace(table=_Levels(defects), psi=_UnitPsi(),
                          rho_fn=lambda rows: rows[:, 0].real,
                          theorem=THEOREMS["ascending", "A"],
                          outcome=SimpleNamespace(N_converged=len(defects)))
    for bound in (1.0, nan):  # a NaN bound makes every final margin NaN
        monkeypatch.setattr(verify, "hyers_bound", lambda psi, x, z: np.array([bound]))
        pairs = [(d - m, d - bound) for d, m in zip(defects, majorants)]
        [result] = scenarios._telescoping(run)
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
