import io
import json
import math
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spec
from modstab import (
    BiMap,
    LevelTable,
    NonFiniteValueError,
    OverflowAbort,
    Perturbation,
    PreconditionError,
    PsiEnvelope,
    StabilizeConfig,
    ModularSpec,
    bounded_orbit_estimate,
    check_stability_bound,
    check_biadditivity,
    check_telescoping,
    check_uniqueness,
    draw_probes,
    eval_modular,
    hyers_bound,
    preset,
    stabilize,
)
from modstab._kernels import BLOCK_ROWS, row_blocks
from modstab.bimaps import WEIGHT_FLOOR
from modstab.report import write_report
from modstab.scenarios import builtin_scenarios, calibrate_theta, run_scenario
from modstab.theorem import THEOREMS

MATRIX2 = preset("matrix2")
COMPLEX = preset("complex")
NORM = ModularSpec(kind="norm")


def rho_rows(rows):
    return eval_modular(NORM, np.atleast_2d(rows))


def asc_psi(theta=1.0, p=0.5):
    return PsiEnvelope(theta=theta, p=p, direction="ascending")


def asc_cfg(seed=0, count=64, **kw):
    return StabilizeConfig(direction="ascending", probes=draw_probes(4, count, 1.0, seed), **kw)


def test_exact_bilinear_map_is_a_fixed_point():
    d = BiMap(algebra=MATRIX2, kernel="commutator")
    table = LevelTable(d, asc_cfg())
    out = stabilize(table, asc_psi(), rho_rows)
    assert out.converged and out.N_converged <= 1
    assert out.bound_margin <= 0.0
    assert np.array_equal(table[0], table[out.N_converged])


def test_bounded_oscillation_limit_is_the_kernel():
    # d(x,z) = x z + eps sin(Re x) z on the scalar algebra
    eps = 0.01
    d = BiMap(algebra=COMPLEX, kernel="product",
              perturbation=Perturbation("bounded_osc", eps))
    kernel = BiMap(algebra=COMPLEX, kernel="product")
    probes = draw_probes(1, 64, 1.0, seed=4)
    cfg = StabilizeConfig(direction="ascending", probes=probes)
    out = stabilize(LevelTable(d, cfg), asc_psi(theta=eps), rho_rows)
    assert out.converged and out.N_converged <= 40
    X, Z = probes.x, probes.z
    assert np.max(rho_rows(out.D(X, Z) - kernel(X, Z))) <= 1e-9
    assert np.max(rho_rows(out.D(X, Z) - d(X, Z))) <= eps


def test_descending_power_envelope_limit():
    eps = 0.01
    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("power_env", eps, p=2.0))
    kernel = BiMap(algebra=MATRIX2, kernel="commutator")
    probes = draw_probes(4, 64, 1.0, seed=5)
    cfg = StabilizeConfig(direction="descending", probes=probes)
    psi = PsiEnvelope(theta=eps, p=2.0, direction="descending")
    out = stabilize(LevelTable(d, cfg), psi, rho_rows)
    assert out.converged
    X, Z = probes.x, probes.z
    assert np.max(rho_rows(out.D(X, Z) - kernel(X, Z))) <= 1e-9


def test_preconditions_rejected():
    d = BiMap(algebra=MATRIX2, kernel="commutator")
    with pytest.raises(PreconditionError):
        stabilize(LevelTable(d, asc_cfg()), PsiEnvelope(theta=1.0, p=2.0, direction="descending"),
                  rho_rows)


def test_overflow_abort_records_level():
    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("bounded_osc", 0.5))
    cfg = asc_cfg(magnitude_cap=1e3)
    with pytest.raises(OverflowAbort) as exc:
        stabilize(LevelTable(d, cfg), asc_psi(), rho_rows)
    assert exc.value.level <= 11


# --- contraction rates ---------------------------------------------------------


def contraction_rate(out):
    """The geometric mean of the ratios of successive nonzero rho-tilde
    deltas of a converged iteration."""
    h = [lv.rho_tilde_delta for lv in out.levels]
    ratios = [b / a for a, b in zip(h, h[1:]) if a > 0.0 and b > 0.0]
    return float(np.exp(np.mean(np.log(ratios))))


def test_power_env_contracts_at_sharp_rate():
    eps = 0.01
    d = BiMap(algebra=COMPLEX, kernel="product",
              perturbation=Perturbation("power_env", eps, p=0.5))
    probes = draw_probes(1, 64, 1.0, seed=7)
    cfg = StabilizeConfig(direction="ascending", probes=probes)
    out = stabilize(LevelTable(d, cfg), asc_psi(theta=eps), rho_rows)
    assert contraction_rate(out) == pytest.approx(2.0 ** (-0.5), abs=1e-6)


def test_bounded_osc_contracts_at_half():
    eps = 0.01
    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("bounded_osc", eps, boundary_safe=True))
    probes = draw_probes(4, 128, 1.0, seed=8)
    cfg = StabilizeConfig(direction="ascending", probes=probes)
    out = stabilize(LevelTable(d, cfg), asc_psi(theta=eps), rho_rows)
    assert contraction_rate(out) <= 0.5 + 0.05


# --- a-priori bound ----------------------------------------------------------


def test_hyers_bound_unit_vectors():
    psi = asc_psi(theta=1.0, p=0.5)
    val = hyers_bound(psi, np.array([1.0 + 0j]), np.array([1.0 + 0j]))
    assert val == pytest.approx(1.0 / (1.0 - 2.0 ** (-0.5)), abs=1e-12)
    assert val == pytest.approx(3.41421356, abs=1e-7)


def test_hyers_bound_degenerate_cases():
    psi = asc_psi(theta=0.0)
    assert hyers_bound(psi, np.array([1.0 + 0j]), np.array([1.0 + 0j])) == 0.0
    psi = asc_psi(theta=1.0)
    assert hyers_bound(psi, np.array([0.0 + 0j]), np.array([1.0 + 0j])) == 0.0


# --- telescoping diagnostics -------------------------------------------------


def telescoping(table, psi):
    """The run's one iteration on ``table``, then the telescoping check on
    its levels 1..N, both under inequality A's substitution: (outcome,
    kappa margins, final margins)."""
    out = stabilize(table, psi, rho_rows)
    tel = check_telescoping(table, psi, rho_rows, out.N_converged,
                            THEOREMS[table.cfg.direction, "A"])
    return out, tel.columns["kappa_margin"], tel.columns["final_margin"]


def test_descending_table_tight_at_matched_amplitude():
    # theta = eps makes the descending table an equality chain for the
    # quadratic envelope perturbation; margins must be <= 0 up to rounding
    eps = 0.01
    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("power_env", eps, p=2.0))
    probes = draw_probes(4, 64, 1.0, seed=9)
    cfg = StabilizeConfig(direction="descending", probes=probes)
    psi = PsiEnvelope(theta=eps, p=2.0, direction="descending")
    out, kappa_margin, final_margin = telescoping(LevelTable(d, cfg), psi)
    assert len(kappa_margin) == out.N_converged > 1
    assert np.all(kappa_margin <= 1e-12) and np.all(final_margin <= 1e-12)


def test_descending_table_detects_undersized_envelope():
    eps = 0.01
    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("power_env", eps, p=2.0))
    probes = draw_probes(4, 64, 1.0, seed=9)
    cfg = StabilizeConfig(direction="descending", probes=probes)
    psi = PsiEnvelope(theta=eps / 4.0, p=2.0, direction="descending")
    _, kappa_margin, _ = telescoping(LevelTable(d, cfg), psi)
    assert np.any(kappa_margin > 0)


def test_telescoping_refuses_a_theorem_of_another_direction():
    # the majorant follows the theorem: one whose direction is not the
    # table's would bound descending iterates by the ascending sum
    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("power_env", 0.01, p=2.0))
    cfg = StabilizeConfig(direction="descending", probes=draw_probes(4, 17, 1.0, seed=9))
    psi = PsiEnvelope(theta=0.01, p=2.0, direction="descending")
    with pytest.raises(PreconditionError, match="direction"):
        check_telescoping(LevelTable(d, cfg), psi, rho_rows, 2, THEOREMS["ascending", "A"])


def test_ascending_partial_sums_majorize_with_slack():
    eps = 0.01
    theta = eps * (2.0 - np.sqrt(2.0))  # matches the seed inequality exactly
    d = BiMap(algebra=COMPLEX, kernel="product",
              perturbation=Perturbation("power_env", eps, p=0.5))
    probes = draw_probes(1, 64, 1.0, seed=10)
    cfg = StabilizeConfig(direction="ascending", probes=probes)
    out, kappa_margin, final_margin = telescoping(LevelTable(d, cfg), asc_psi(theta=theta))
    assert len(kappa_margin) == out.N_converged > 1
    assert np.all(kappa_margin <= 1e-12) and np.all(final_margin <= 1e-12)


def test_telescoping_final_margin_is_against_the_hyers_bound():
    # an envelope a tenth of the perturbation's size, so the defect passes
    # the bound and the margins are positive (the zero probe pins them at 0
    # otherwise)
    table = LevelTable(osc_map(eps=0.01), asc_cfg(seed=13))
    psi = asc_psi(theta=0.001)
    out, _, final_margin = telescoping(table, psi)
    probes = table.cfg.probes
    bound = hyers_bound(psi, probes.x, probes.z)
    for lv, got in zip(out.levels, final_margin.tolist(), strict=True):
        assert got == float(np.max(rho_rows(table[lv.level] - table[0]) - bound))
    assert out.bound_margin == final_margin[-1] > 0.0


# --- uniqueness and orbit ----------------------------------------------------


def uniqueness(d, psi, cfg):
    """The run's one iteration, then its uniqueness check on the same table."""
    table = LevelTable(d, cfg)
    out = stabilize(table, psi, rho_rows)
    return check_uniqueness(out, rho_rows, table)


def test_uniqueness_exact_fixture():
    d = BiMap(algebra=MATRIX2, kernel="commutator")
    cfg = asc_cfg(seed=12, tol=1e-12)
    rep = uniqueness(d, asc_psi(), cfg)
    assert rep.passed.all()
    assert rep.lhs[0] == rep[0].payload["max_disagreement"] <= 1e-12


def test_uniqueness_perturbed_fixture():
    eps = 0.01
    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("bounded_osc", eps, boundary_safe=True))
    cfg = asc_cfg(seed=13)
    rep = uniqueness(d, asc_psi(theta=eps), cfg)
    assert rep.passed


def test_a_delta_equal_to_tol_converges():
    # the stop rule is delta_n <= tol, the pass rule of the run's stabilize
    # record: with tol set to level 5's own delta, the iteration and every
    # uniqueness rerun stop at level 5, and the run counts as converged
    d, psi = osc_map(), asc_psi(theta=0.01)
    free = stabilize(LevelTable(d, asc_cfg(seed=13, tol=1e-30)), psi, rho_rows)
    deltas = [lv.sup_rho_delta for lv in free.levels]
    assert min(deltas[:4]) > deltas[4] > deltas[5] > 0.0
    table = LevelTable(d, asc_cfg(seed=13, tol=deltas[4]))
    out = stabilize(table, psi, rho_rows)
    assert out.converged and out.N_converged == 5
    assert out.levels[-1].sup_rho_delta == table.cfg.tol
    rep = check_uniqueness(out, rho_rows, table)
    assert [v[1] for v in rep[0].payload["variants"]] == [5] * 5 and rep.passed.all()


def test_a_run_whose_last_delta_equals_tol_passes_its_stabilize_record():
    cfg = json.loads(json.dumps(builtin_scenarios()["corollary-ascending-p05"]))
    deltas = [r.payload["sup_rho_delta"] for r in run_scenario(cfg).records
              if r.stage == "iterate"]
    assert deltas[-2] > cfg["iteration"]["tol"] and deltas[-2] < min(deltas[:-2])
    cfg["iteration"]["tol"] = deltas[-2]
    result = run_scenario(cfg)
    [stab] = [r for r in result.records if r.payload.get("check") == "stabilize"]
    assert stab.passed and stab.payload["converged"]
    assert stab.payload["n_converged"] == len(deltas) - 1


def _uniqueness_fixtures():
    eps = 0.01
    yield "ascending", osc_map(eps), asc_psi(theta=eps)
    yield "ascending", BiMap(algebra=MATRIX2, kernel="commutator"), asc_psi()
    yield "descending", BiMap(
        algebra=MATRIX2, kernel="commutator", perturbation=Perturbation("power_env", eps, p=2.0)
    ), PsiEnvelope(theta=eps, p=2.0, direction="descending")


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-14])
@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5, 6, 12, 40])
def test_uniqueness_matches_the_reruns(n_max, tol):
    # n_max 1..3 put a start level at or past the level cap; the spec's
    # reruns read their levels from a table of their own
    for direction, d, psi in _uniqueness_fixtures():
        cfg = StabilizeConfig(direction=direction, probes=draw_probes(4, 48, 1.0, 17),
                              n_max=n_max, tol=tol)
        counted, ref_counted = CountingMap(d, cfg.probes), CountingMap(d, cfg.probes)
        table, ref_table = LevelTable(counted, cfg), LevelTable(ref_counted, cfg)
        out = stabilize(table, psi, rho_rows)
        rep = check_uniqueness(out, rho_rows, table)
        ref = SimpleNamespace(level=ref_table.__getitem__, tol=tol, n_max=n_max)
        stabilize(ref_table, psi, rho_rows)
        assert list(rep) == [spec.uniqueness(ref, rho_rows, out.N_converged)]
        # and in the same map calls, each level evaluated once: no level is
        # evaluated that a rerun did not read
        assert counted.widths == ref_counted.widths and counted.calls == ref_counted.calls
        assert set(counted.calls.values()) == {1}


def test_uniqueness_keeps_the_non_finite_abort_past_the_run():
    # the run stops two levels short of the level whose exponential modular
    # overflows; the rerun capped at n_max + 5 reaches it and aborts there
    exp_mod = ModularSpec(kind="orlicz", phi="exp_minus_one")

    def rho_exp(rows):
        return eval_modular(exp_mod, np.atleast_2d(rows))

    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("quad_slot1", 1.0))
    with pytest.raises(NonFiniteValueError) as exc:
        stabilize(LevelTable(d, asc_cfg(seed=22)), asc_psi(), rho_exp)
    level = exc.value.level
    table = LevelTable(d, asc_cfg(seed=22, n_max=level - 2))
    out = stabilize(table, asc_psi(), rho_exp)
    plain = spec.Iteration(d, "ascending", level - 2, 1e-10, 1e15, table.cfg.probes.x,
                           table.cfg.probes.z)
    for run_check in (lambda: check_uniqueness(out, rho_exp, table),
                      lambda: spec.uniqueness(plain, rho_exp, out.N_converged)):
        with pytest.raises(NonFiniteValueError) as exc:
            run_check()
        assert exc.value.level == level


def test_uniqueness_stops_a_rerun_below_the_magnitude_cap():
    # the cap admits level 12 and no level past it; the iteration stops at
    # n_max = 10, and the rerun capped at 15 stops at 12 instead of aborting
    cfg = asc_cfg(seed=13, n_max=10, tol=1e-30)
    cap_level = 12
    cfg = replace(cfg, magnitude_cap=2.0**cap_level * float(np.abs(cfg.probes.x).max()))
    d = CountingMap(osc_map(), cfg.probes)
    table = LevelTable(d, cfg)
    out = stabilize(table, asc_psi(theta=0.01), rho_rows)
    assert not out.converged
    with pytest.raises(OverflowAbort):
        table[cap_level + 1]
    rep = check_uniqueness(out, rho_rows, table)
    assert rep[0].payload["variants"][-1][:2] == ["n_max=15", cap_level]
    assert not rep.passed[0]
    # levels 0..10 are one block; 11 and 12, past n_max, are read alone by
    # the rerun, and no level past the cap is evaluated
    assert d.calls == Counter(range(cap_level + 1)) and d.widths == [11 * 64, 64, 64]


def test_uniqueness_reads_no_rerun_level_past_the_magnitude_cap():
    # radius 1 and cap 2 admit level 1 and no level past it; the run
    # converges at level 1, and the rerun from start level 3 with cap 3
    # freezes at level 1 too, as the spec's does, where it once read level 2
    # past the cap and exited 2
    cfg = builtin_scenarios()["superstability-commutator"]
    cfg["iteration"].update(n_max=3, magnitude_cap=2.0)
    cfg["checks"] = ["uniqueness"]
    result = run_scenario(cfg)
    out = io.StringIO()
    write_report(result.header, result.records, out)
    assert (result.exit_code, out.getvalue().splitlines(keepends=True)[1:]) == spec.run(cfg)
    assert result.exit_code == 0
    [variants] = [r.payload["variants"] for r in result.records if "variants" in r.payload]
    assert [level for _, level, _ in variants] == [1] * 5


def orbit(table, out):
    """Levels 0..N of the run's table, the iterates its orbit check reads."""
    return [table[n] for n in range(out.N_converged + 1)]


def test_bounded_orbit_matches_the_pairwise_loop():
    table = LevelTable(osc_map(), asc_cfg(seed=13))
    out = stabilize(table, asc_psi(theta=0.01), rho_rows)
    iterates = orbit(table, out)
    assert len(iterates) > 10
    est = bounded_orbit_estimate(iterates, out.weights, rho_rows)
    assert np.isfinite(est) and est > 0.0
    assert est == spec.orbit_estimate(iterates, out.weights, rho_rows)
    # the orbit moves at probe 7, so a zero weight there hides a defect
    # from the induced modular
    weights = out.weights.copy()
    weights[7] = 0.0
    assert bounded_orbit_estimate(iterates, weights, rho_rows) == float("inf")
    assert spec.orbit_estimate(iterates, weights, rho_rows) == float("inf")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bounded_orbit_matches_the_pairwise_loop_on_every_prefix(seed):
    # unordered random levels, so every pair can hold the supremum
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(9, 40, 4)) + 1j * rng.normal(size=(9, 40, 4))
    weights = rng.uniform(0.1, 2.0, 40)
    for m in range(1, len(stack) + 1):
        est = bounded_orbit_estimate(stack[:m], weights, rho_rows)
        assert est == spec.orbit_estimate(stack[:m], weights, rho_rows)


@pytest.mark.parametrize("n_probes", [700, 2049])  # 2 levels per chunk, then 1
@pytest.mark.parametrize("case", ["finite", "nan_at_zero_weight_inf_at_active",
                                  "nan_and_inf_at_one_zero_weight_probe",
                                  "nan_and_inf_at_active_probes", "nan_then_inf_over_inf_weight"])
def test_bounded_orbit_matches_the_pairwise_loop_across_chunks(n_probes, case):
    # level 0's six pairs span three chunks at 700 probes and six at 2049; a
    # NaN in level 2 and an overflowing difference between levels 0 and 5 fall
    # in different chunks of level 0
    assert len(row_blocks(6, n_probes)) == (3 if n_probes == 700 else 6)
    rng = np.random.default_rng(n_probes)
    stack = rng.normal(size=(7, n_probes, 4)) + 1j * rng.normal(size=(7, n_probes, 4))
    weights = rng.uniform(0.1, 2.0, n_probes)
    nan_at, inf_at = 10, 20
    if case == "nan_at_zero_weight_inf_at_active":
        weights[nan_at] = 0.0
    elif case == "nan_and_inf_at_one_zero_weight_probe":
        inf_at = nan_at
        weights[nan_at] = 0.0
    elif case == "nan_and_inf_at_active_probes":
        weights[inf_at] = 1.0  # levels 3 and 4 differ from level 5 by ~1.5e308 there
    elif case == "nan_then_inf_over_inf_weight":
        weights[inf_at] = np.inf
    if case != "finite":
        stack[2, nan_at, 3] = complex(np.nan, 0.0)
        stack[0, inf_at, 1], stack[5, inf_at, 1] = -1.5e308, 1.5e308
    with np.errstate(over="ignore", invalid="ignore"):
        est = bounded_orbit_estimate(stack, weights, rho_rows)
        assert est == spec.orbit_estimate(stack, weights, rho_rows)
    if case in ("nan_at_zero_weight_inf_at_active", "nan_and_inf_at_one_zero_weight_probe"):
        assert est == np.inf
    else:
        # in nan_and_inf_at_active_probes, level 0's NaN ratio passes over the
        # whole level, its inf pair included
        assert 0.0 < est < np.inf


def test_bounded_orbit_zero_for_fixed_point():
    table = LevelTable(BiMap(algebra=MATRIX2, kernel="commutator"), asc_cfg())
    out = stabilize(table, asc_psi(), rho_rows)
    assert bounded_orbit_estimate(orbit(table, out), out.weights, rho_rows) == 0.0


def _orbit_case(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    stack = rng.normal(size=(7, 24, 4)) + 1j * rng.normal(size=(7, 24, 4))
    weights = rng.uniform(0.1, 2.0, 24)
    if name == "single_iterate":
        stack = stack[:1]
    elif name == "all_weights_zero":
        stack[:] = stack[0]  # no level moves, so no defect either
        weights[:] = 0.0
    elif name == "all_weights_zero_with_defect":
        weights[:] = 0.0
    elif name == "zero_weight_with_defect":
        weights[[3, 17]] = 0.0
    elif name == "zero_weight_without_defect":
        weights[[3, 17]] = 0.0
        stack[:, [3, 17]] = stack[0, [3, 17]]
    elif name == "overflow_at_active_probe":
        stack[2, 5, 1], stack[4, 5, 1] = 1.5e308, -1.5e308
    elif name == "overflow_at_zero_weight_probe":
        stack[2, 5, 1], stack[4, 5, 1] = 1.5e308, -1.5e308
        weights[5] = 0.0
    elif name == "weights_at_the_tolerance":
        weights[::2] = np.nextafter(1e-15, 1.0)  # active, with ratios near 1e15
        weights[1::4] = 1e-15  # inactive, on probes that do not move
        stack[:, 1::4] = stack[0, 1::4]
    return stack, weights


ORBIT_CASES = ["random", "single_iterate", "all_weights_zero", "all_weights_zero_with_defect",
               "zero_weight_with_defect", "zero_weight_without_defect",
               "overflow_at_active_probe", "overflow_at_zero_weight_probe", "weights_at_the_tolerance"]
ORBIT_WANT = {"single_iterate": 0.0, "all_weights_zero": 0.0,
              "all_weights_zero_with_defect": float("inf"),
              "zero_weight_with_defect": float("inf"),
              "overflow_at_active_probe": float("inf"),
              "overflow_at_zero_weight_probe": float("inf")}


@pytest.mark.parametrize("name", ORBIT_CASES)
def test_bounded_orbit_matches_the_pairwise_loop_on_edge_cases(name):
    stack, weights = _orbit_case(name)
    with np.errstate(over="ignore"):  # the overflow cases subtract +-1.5e308
        est = bounded_orbit_estimate(stack, weights, rho_rows)
        want = spec.orbit_estimate(stack, weights, rho_rows)
    assert type(est) is float
    assert est == want
    if name in ORBIT_WANT:
        assert est == ORBIT_WANT[name]
    else:
        assert 0.0 < est < float("inf")


@pytest.mark.parametrize("seed", range(6))
def test_finite_weights_and_iterates_give_no_nan_ratio(seed):
    # with finite weights a ratio is v / w with w > 0 finite, and with finite
    # iterates v is finite or +inf (an overflowing difference), never NaN;
    # so every level counts, and the per-probe maximum divided once equals
    # the ratios taken pair by pair
    rng = np.random.default_rng(seed)
    stack = (rng.normal(size=(8, 32, 4)) + 1j * rng.normal(size=(8, 32, 4))) * 10.0 ** rng.integers(
        -300, 300, size=(8, 32, 1))
    weights = 10.0 ** rng.uniform(-300, 300, 32)
    weights[rng.integers(0, 32, 3)] = 0.0
    with np.errstate(over="ignore", under="ignore"):
        vals = [rho_rows(a - b) for i, a in enumerate(stack) for b in stack[i + 1:]]
        assert not np.isnan(vals).any()
        est = bounded_orbit_estimate(stack, weights, rho_rows)
        assert est == spec.orbit_estimate(stack, weights, rho_rows)


@pytest.mark.parametrize("defect", [False, True])
@pytest.mark.parametrize("kind", ["inf_over_inf_weight", "nan_value"])
def test_bounded_orbit_passes_over_a_level_with_a_nan_ratio(kind, defect):
    # inf over an infinite weight, or a NaN value at a weighted probe, makes a
    # level's largest active ratio NaN; such a level adds nothing, as Python's
    # max makes it, while its zero-weight probes still count for the defect test
    rng = np.random.default_rng(31)
    stack = rng.normal(size=(6, 16, 4)) + 1j * rng.normal(size=(6, 16, 4))
    stack[1] *= 100.0  # the pairs with level 1 hold the largest ratios
    weights = rng.uniform(0.5, 2.0, 16)
    if kind == "inf_over_inf_weight":
        weights[2] = np.inf
        stack[1, 2] = 1.5e308  # rho, about 3e308, is inf in every pair with level 1
        counted = 2  # levels 0 and 1 are passed over
    else:
        stack[3, 9, 2] = complex(np.nan, 0.0)  # NaN in every pair with level 3
        counted = 4
    weights[11] = 0.0
    if defect:
        stack[1, 11, 1] += 1.0  # seen only in levels 0 and 1
    else:
        stack[:, 11] = stack[0, 11]
    # a NaN at a zero-weight probe passes over no level, and hides no defect
    # seen in another pair or level: level 4's one pair is NaN there
    stack[5, 11, 3] = complex(np.nan, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        est = bounded_orbit_estimate(stack, weights, rho_rows)
        assert est == spec.orbit_estimate(stack, weights, rho_rows)
        rest = spec.orbit_estimate(stack[counted:], weights, rho_rows)
    if defect:
        assert est == float("inf")
    else:
        assert est == rest and 0.0 < est < float("inf")


ORBIT_MODULARS = [ModularSpec(kind="norm")]
ORBIT_MODULARS += [ModularSpec(kind="power", p=p) for p in (1.0, 1.5, 3.0)]
ORBIT_MODULARS += [ModularSpec(kind="orlicz", phi=phi)
                   for phi in ("square", "exp_minus_one", "linear", "dead_zone")]


@st.composite
def orbit_cases(draw):
    """(levels, weights) of a drawn orbit: geometric, non-decaying, or
    alternating about its last level at the dead zone's kink, with ties,
    zero and tiny weights, and inf and NaN entries."""
    n_probes = draw(st.sampled_from([1, 2, 5, 40, 683, 1024, 2047, 2048, 2049]))
    # few levels at many probes keeps the all-pairs oracle quick
    n_levels = draw(st.integers(1, 45 if n_probes <= 40 else 3))
    dim = draw(st.sampled_from([1, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_levels, n_probes, dim)

    def gauss(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    kind = draw(st.sampled_from(["geometric", "non-decaying", "kink"]))
    scale = draw(st.sampled_from([1e-9, 1.0, 300.0, 1e150]))
    if kind == "geometric":
        decay = draw(st.sampled_from([0.25, 0.5, 2**-0.5, 0.99]))
        steps = decay ** np.arange(n_levels)[:, None, None] * gauss(shape)
        levels = scale * (gauss((1, n_probes, dim)) + steps)
    elif kind == "non-decaying":
        levels = scale * gauss(shape)
    else:  # levels half a unit either side of the last, where phi(t) = max(t - 1, 0) kinks
        turn = np.exp(2j * np.pi * rng.uniform(size=(1, n_probes, dim)))
        ulps = rng.integers(-4, 5, size=shape) * 2.0**-52
        sign = (-1.0) ** np.arange(n_levels)[:, None, None]
        last = draw(st.sampled_from([0.3 + 0.2j, 5.3 - 2.1j, 1e3 + 0.1j]))
        levels = last + sign * 0.5 * turn * (1.0 + ulps)
        levels[-1] = last
    if n_levels > 2 and draw(st.booleans()):  # ties: repeated levels and probes
        levels[rng.integers(1, n_levels)] = levels[rng.integers(0, n_levels)]
        levels[:, rng.integers(0, n_probes)] = levels[:, 0]
    weights = rng.uniform(0.1, 2.0, n_probes)
    for w in draw(st.lists(st.sampled_from(
            [0.0, WEIGHT_FLOOR, np.nextafter(WEIGHT_FLOOR, 1.0), 1e-12, np.inf]), max_size=4)):
        weights[rng.integers(0, n_probes)] = w
    for v in draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf, 1.5e308]), max_size=3)):
        levels[rng.integers(0, n_levels), rng.integers(0, n_probes), rng.integers(0, dim)] = v
    return list(levels), weights


@settings(max_examples=150, deadline=None)
@given(case=orbit_cases(), modular=st.sampled_from(ORBIT_MODULARS))
def test_pruned_orbit_estimate_has_the_bits_of_all_pairs(case, modular):
    levels, weights = case

    def rho_fn(rows):
        return eval_modular(modular, rows)

    with np.errstate(all="ignore"):
        est = bounded_orbit_estimate(levels, weights, rho_fn)
        want = spec.orbit_estimate(levels, weights, rho_fn)
    assert type(est) is float
    assert est == want or math.isnan(est) and math.isnan(want)


def test_pruned_orbit_estimate_guards_the_dead_zone_kink():
    # T_0 and T_1 lie half a unit either side of T_2, so s_0 and s_1 are 0,
    # but T_0 - T_1 rounds past |t| = 1 and its dead-zone value does not:
    # only the absolute part of the guard keeps the pair from being skipped
    dead_zone = ModularSpec(kind="orlicz", phi="dead_zone")

    def rho_fn(rows):
        return eval_modular(dead_zone, rows)

    levels = [np.array([[-0.1786429207184289 + 0.34457162393129503j]]),
              np.array([[0.778642920718429 + 0.05542837606870499j]]),
              np.array([[0.3 + 0.2j]])]
    s = [float(rho_fn(2.0 * (levels[2] - t))[0]) for t in levels[:2]]
    value = float(rho_fn(levels[0] - levels[1])[0])
    assert s == [0.0, 0.0] and value > 0.0
    weights = np.array([1.0])
    assert bounded_orbit_estimate(levels, weights, rho_fn) == value
    assert spec.orbit_estimate(levels, weights, rho_fn) == value


def test_orbit_estimate_of_the_ascending_builtin_skips_most_pairs():
    # 30 levels: all 435 pairs would be 222,720 modular rows at 512 probes
    result = run_scenario("corollary-ascending-p05")
    [est] = [r.payload["estimate"] for r in result.records
             if r.payload.get("check") == "bounded_orbit"]
    ctx = result.context
    table = LevelTable(ctx["bimap"], StabilizeConfig(direction="ascending", probes=ctx["probes"]))
    levels = [table[n] for n in range(ctx["outcome"].N_converged + 1)]
    assert len(levels) == 30
    rows = []

    def counting(batch):
        rows.append(len(batch))
        return ctx["rho_fn"](batch)

    assert bounded_orbit_estimate(levels, ctx["outcome"].weights, counting) == est
    assert sum(rows) <= 40_000


def test_deltas_eventually_decrease_under_contraction():
    eps = 0.01
    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("bounded_osc", eps, boundary_safe=True))
    out = stabilize(LevelTable(d, asc_cfg(seed=21, count=128)), asc_psi(theta=eps), rho_rows)
    assert contraction_rate(out) < 1.0
    tail = [lv.rho_tilde_delta for lv in out.levels][-6:]
    assert all(b <= a for a, b in zip(tail, tail[1:]))


def test_nonfinite_modular_value_aborts_with_level():
    # a first-slot quadratic term grows ~2^n under ascending scaling; the
    # exponential modular overflows to +inf long before the magnitude cap
    exp_mod = ModularSpec(kind="orlicz", phi="exp_minus_one")

    def rho_exp(rows):
        return eval_modular(exp_mod, np.atleast_2d(rows))

    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("quad_slot1", 1.0))
    with pytest.raises(NonFiniteValueError) as exc:
        stabilize(LevelTable(d, asc_cfg(seed=22)), asc_psi(), rho_exp)
    assert exc.value.level is not None and exc.value.level < 40


@pytest.mark.parametrize("seed", [301, 302, 303, 304])
def test_random_calibrated_fixtures_satisfy_the_bound(seed):
    # the headline property on fresh fixtures: calibrate the envelope from
    # the defect inequality, extract the limit, measure the bound
    rng = np.random.default_rng(seed)
    c = complex(rng.normal(), rng.normal())
    eps = float(rng.uniform(0.005, 0.02))
    d = BiMap(algebra=MATRIX2, kernel=("commutator", "product")[seed % 2], coeff=c,
              perturbation=Perturbation("bounded_osc", eps, boundary_safe=True))
    probes = draw_probes(4, 96, 1.0, seed=seed)
    psi0 = PsiEnvelope(theta=1.0, p=0.5, direction="ascending")
    table = LevelTable(d, StabilizeConfig(direction="ascending", probes=probes))
    theta = calibrate_theta(table, psi0, rho_rows, 0.5, THEOREMS["ascending", "A"])
    psi = psi0.with_theta(theta)
    out, kappa_margin, final_margin = telescoping(table, psi)
    assert out.converged
    X, Z = probes.x, probes.z
    recs = check_stability_bound(d(X, Z), out.D(X, Z), psi, rho_rows, probes)
    assert np.all(recs.margin <= 1e-9)
    assert all(slot.passed.all() for slot in check_biadditivity(out.D, rho_rows, probes, tol=1e-8))
    assert np.all(kappa_margin <= 1e-9) and np.all(final_margin <= 1e-9)


# --- level table ---------------------------------------------------------------


class CountingMap:
    """Wraps the map d and counts its calls on stacked scaled probes, the
    calls of a level table: for each it records the width, and counts each
    level n it stacks (2^n x or x / 2^n) once.  A call on other rows, such
    as calibration's random family, passes uncounted; d's other attributes
    are read through."""

    def __init__(self, d, probes):
        self.d = d
        self.x = probes.x
        self.calls = Counter()
        self.widths = []

    def __getattr__(self, name):
        return getattr(self.d, name)

    def __call__(self, x, z):
        x = np.asarray(x)
        levels = self._levels(x)
        if levels:
            self.widths.append(len(x))
            self.calls.update(levels)
        return self.d(x, z)

    def _levels(self, x):
        """The level of each probe-sized block of x, or None unless every
        block is the probes scaled by a power of two."""
        n = len(self.x)
        if not len(x) or len(x) % n:
            return None
        levels = []
        for rows in np.split(x, len(x) // n):
            with np.errstate(divide="ignore"):
                m = np.log2(np.abs(rows).max() / np.abs(self.x).max())
            if not np.isfinite(m) or not np.array_equal(rows, self.x * 2.0 ** round(m)):
                return None
            levels.append(abs(round(m)))
        return levels


def osc_map(eps=0.01):
    return BiMap(algebra=MATRIX2, kernel="commutator",
                 perturbation=Perturbation("bounded_osc", eps, boundary_safe=True))


def test_level_table_evaluates_each_level_once():
    # at 64 probes a block spans 32 levels: the run converges inside the
    # first, which is one map call that evaluates each of its levels once
    # and nothing past it
    cfg = asc_cfg(seed=13)
    d = CountingMap(osc_map(), cfg.probes)
    psi = asc_psi(theta=0.01)
    table = LevelTable(d, cfg)
    out = stabilize(table, psi, rho_rows)
    n = out.N_converged
    per_block = BLOCK_ROWS // len(cfg.probes)
    assert out.converged and 3 < n < per_block - 1
    assert d.calls == Counter(range(per_block)) and d.widths == [BLOCK_ROWS]
    rep = check_uniqueness(out, rho_rows, table)
    assert rep.passed.all() and all(v[1] == n for v in rep[0].payload["variants"])
    # the reruns and their limits on the probes read the table only, and a
    # level read twice is the same stored row, read-only
    assert np.shares_memory(table[n], table[n]) and not table[n].flags.writeable
    assert d.calls == Counter(range(per_block)) and d.widths == [BLOCK_ROWS]


def test_the_magnitude_cap_ends_a_block():
    # at 32 probes one block would hold all 41 levels; the cap admits level
    # 12 and no level past it, so the block ends at 12, and level 13 raises
    # without a map call, naming the probe with the largest coordinate
    cfg, psi = asc_cfg(seed=3, count=32, tol=1e-30), asc_psi(theta=0.01)
    x = cfg.probes.x
    cap = 2.0**12 * float(np.abs(x).max())
    d = CountingMap(osc_map(), cfg.probes)
    with pytest.raises(OverflowAbort) as exc:
        stabilize(LevelTable(d, replace(cfg, magnitude_cap=cap)), psi, rho_rows)
    widest = int(np.argmax(np.abs(x).max(axis=1)))
    assert (str(exc.value), exc.value.level, exc.value.probe_id) == (
        f"2^13 scaling exceeds the magnitude cap {cap:g}", 13, widest)
    assert d.calls == Counter(range(13)) and d.widths == [13 * 32]
    # a run that converges below the cap evaluates nothing past its block
    d = CountingMap(osc_map(), cfg.probes)
    capped = stabilize(LevelTable(d, replace(cfg, tol=1e-10, magnitude_cap=2.0**35)), psi,
                       rho_rows)
    uncapped = stabilize(LevelTable(osc_map(), replace(cfg, tol=1e-10)), psi, rho_rows)
    assert capped.converged and capped.levels == uncapped.levels
    assert d.calls == Counter(range(36)) and d.widths == [36 * 32]


def test_level_table_refuses_other_iterates():
    # the table fixes the map, the probes, the direction and the cap; an
    # envelope that scales the other way is refused
    cfg = asc_cfg(seed=13)
    d = CountingMap(osc_map(), cfg.probes)
    with pytest.raises(PreconditionError, match="direction"):
        stabilize(LevelTable(d, cfg), PsiEnvelope(theta=0.01, p=2.0, direction="descending"),
                  rho_rows)
    assert d.widths == []


def test_shared_table_keeps_the_cap_abort():
    # the probes reach the 1e15 cap at level 30; the abort names the probe
    # with the largest coordinate, and no level past it is evaluated
    cfg = json.loads(json.dumps(builtin_scenarios()["corollary-ascending-p05"]))
    cfg["probes"]["radius"] = 1e6
    result = run_scenario(cfg)
    aborts = [r.payload for r in result.records if "error" in r.payload]
    assert aborts == [{
        "error": "2^30 scaling exceeds the magnitude cap 1e+15",
        "level": 30,
        "probe_id": 193,
    }]
