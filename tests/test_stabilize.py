import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from modstab import (
    BiMap,
    ConfigError,
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
    check_uniqueness,
    draw_probes,
    estimate_contraction,
    eval_modular,
    hyers_bound,
    preset,
    stabilize,
)
from modstab.scenarios import builtin_scenarios, calibrate_theta, run_scenario
from modstab.stabilize import UniquenessReport

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
    out = stabilize(d, asc_psi(), rho_rows, asc_cfg())
    assert out.converged and out.N_converged <= 1
    assert out.bound_margin <= 0.0
    assert out.contraction_estimate == 0.0
    probes = out.iterates
    assert np.array_equal(probes[0], probes[-1])


def test_bounded_oscillation_limit_is_the_kernel():
    # d(x,z) = x z + eps sin(Re x) z on the scalar algebra
    eps = 0.01
    d = BiMap(algebra=COMPLEX, kernel="product",
              perturbation=Perturbation("bounded_osc", eps))
    kernel = BiMap(algebra=COMPLEX, kernel="product")
    probes = draw_probes(1, 64, 1.0, seed=4)
    cfg = StabilizeConfig(direction="ascending", probes=probes)
    out = stabilize(d, asc_psi(theta=eps), rho_rows, cfg)
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
    out = stabilize(d, psi, rho_rows, cfg)
    assert out.converged
    X, Z = probes.x, probes.z
    assert np.max(rho_rows(out.D(X, Z) - kernel(X, Z))) <= 1e-9


def test_preconditions_rejected():
    d = BiMap(algebra=MATRIX2, kernel="commutator")
    with pytest.raises(PreconditionError):
        stabilize(d, PsiEnvelope(theta=1.0, p=2.0, direction="descending"), rho_rows, asc_cfg())
    # law violated: L below the sharp ascending constant
    bad = PsiEnvelope(theta=1.0, p=0.5, L=0.5, direction="ascending")
    with pytest.raises(PreconditionError):
        stabilize(d, bad, rho_rows, asc_cfg())


def test_overflow_abort_records_level():
    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("bounded_osc", 0.5))
    cfg = asc_cfg(magnitude_cap=1e3)
    with pytest.raises(OverflowAbort) as exc:
        stabilize(d, asc_psi(), rho_rows, cfg)
    assert exc.value.level <= 11


# --- contraction estimates ---------------------------------------------------


def test_estimate_contraction_preconditions():
    with pytest.raises(PreconditionError):
        estimate_contraction([1.0, 0.5])
    assert estimate_contraction([0.0, 0.0, 0.0]) == 0.0


def test_power_env_contracts_at_sharp_rate():
    eps = 0.01
    d = BiMap(algebra=COMPLEX, kernel="product",
              perturbation=Perturbation("power_env", eps, p=0.5))
    probes = draw_probes(1, 64, 1.0, seed=7)
    cfg = StabilizeConfig(direction="ascending", probes=probes)
    out = stabilize(d, asc_psi(theta=eps), rho_rows, cfg)
    assert out.contraction_estimate == pytest.approx(2.0 ** (-0.5), abs=1e-6)
    assert out.contraction_estimate <= 2.0 ** (-0.5) + 0.05


def test_bounded_osc_contracts_at_half():
    eps = 0.01
    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("bounded_osc", eps, boundary_safe=True))
    probes = draw_probes(4, 128, 1.0, seed=8)
    cfg = StabilizeConfig(direction="ascending", probes=probes)
    out = stabilize(d, asc_psi(theta=eps), rho_rows, cfg)
    assert out.contraction_estimate <= 0.5 + 0.05


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


def test_descending_table_tight_at_matched_amplitude():
    # theta = eps makes the kappa-form table an equality chain for the
    # quadratic envelope perturbation; margins must be <= 0 up to rounding
    eps = 0.01
    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("power_env", eps, p=2.0))
    probes = draw_probes(4, 64, 1.0, seed=9)
    cfg = StabilizeConfig(direction="descending", probes=probes)
    psi = PsiEnvelope(theta=eps, p=2.0, direction="descending")
    out = stabilize(d, psi, rho_rows, cfg, kappa=2.0)
    for lv in out.levels:
        assert lv.telescoping_kappa_margin <= 1e-12
        assert lv.telescoping_final_margin <= 1e-12


def test_descending_table_detects_undersized_envelope():
    eps = 0.01
    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("power_env", eps, p=2.0))
    probes = draw_probes(4, 64, 1.0, seed=9)
    cfg = StabilizeConfig(direction="descending", probes=probes)
    psi = PsiEnvelope(theta=eps / 4.0, p=2.0, direction="descending")
    out = stabilize(d, psi, rho_rows, cfg, kappa=2.0)
    assert any(lv.telescoping_kappa_margin > 0 for lv in out.levels)


def test_ascending_partial_sums_majorize_with_slack():
    eps = 0.01
    theta = eps * (2.0 - np.sqrt(2.0))  # matches the seed inequality exactly
    d = BiMap(algebra=COMPLEX, kernel="product",
              perturbation=Perturbation("power_env", eps, p=0.5))
    probes = draw_probes(1, 64, 1.0, seed=10)
    cfg = StabilizeConfig(direction="ascending", probes=probes)
    out = stabilize(d, asc_psi(theta=theta), rho_rows, cfg)
    for lv in out.levels:
        assert lv.telescoping_kappa_margin <= 1e-12
        assert lv.telescoping_final_margin <= 1e-12


# --- uniqueness and orbit ----------------------------------------------------


def uniqueness(d, psi, cfg):
    """The run's one iteration, then its uniqueness check on the same table."""
    table = LevelTable(d, cfg)
    out = stabilize(d, psi, rho_rows, cfg, table=table)
    return check_uniqueness(out, rho_rows, cfg, table)


def test_uniqueness_exact_fixture():
    d = BiMap(algebra=MATRIX2, kernel="commutator")
    cfg = asc_cfg(seed=12, tol=1e-12)
    rep = uniqueness(d, asc_psi(), cfg)
    assert rep.passed
    assert rep.max_disagreement <= 1e-12


def test_uniqueness_perturbed_fixture():
    eps = 0.01
    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("bounded_osc", eps, boundary_safe=True))
    cfg = asc_cfg(seed=13)
    rep = uniqueness(d, asc_psi(theta=eps), cfg)
    assert rep.passed


def _rerun_uniqueness_reference(d, psi, rho_fn, cfg, table):
    # the check as six iterations on one table: the base run, three reruns
    # from start levels 1..3 (stabilize's loop begun at that level) and the
    # runs capped at n_max -/+ 5, each labelled with the cap it ran
    def rerun_from(start):
        v_prev = table[start]
        frozen = start
        for n in range(start + 1, cfg.n_max + 1):
            v = table[n]
            diff_rho = rho_fn(v - v_prev)
            if not np.isfinite(diff_rho).all():
                raise NonFiniteValueError("non-finite modular value", level=n)
            v_prev = v
            frozen = n
            if float(np.max(diff_rho)) < cfg.tol:
                break
        return frozen

    def capped(m):
        return stabilize(d, psi, rho_fn, replace(cfg, n_max=m), telescoping=False,
                         skip_psi_check=True, table=table).N_converged

    base = stabilize(d, psi, rho_fn, cfg, telescoping=False, table=table).N_converged
    runs = [(f"start={s}", rerun_from(s)) for s in (1, 2, 3)]
    runs += [(f"n_max={m}", capped(m)) for m in (max(1, cfg.n_max - 5), cfg.n_max + 5)]
    variants = []
    worst = 0.0
    for tag, n in runs:
        gap = float(np.max(rho_fn(table[n] - table[base])))
        worst = max(worst, gap)
        variants.append((tag, n, gap))
    return UniquenessReport(
        max_disagreement=worst, passed=worst <= 10.0 * cfg.tol, variants=tuple(variants)
    )


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
    # n_max 1..3 put a start level at or past the level cap
    for direction, d, psi in _uniqueness_fixtures():
        cfg = StabilizeConfig(direction=direction, probes=draw_probes(4, 48, 1.0, 17),
                              n_max=n_max, tol=tol)
        table, ref_table = LevelTable(d, cfg), LevelTable(d, cfg)
        out = stabilize(d, psi, rho_rows, cfg, table=table)
        rep = check_uniqueness(out, rho_rows, cfg, table)
        assert rep == _rerun_uniqueness_reference(d, psi, rho_rows, cfg, ref_table)
        # and from the same levels: no table level is read that a rerun did not read
        assert sorted(table._levels) == sorted(ref_table._levels)


def test_uniqueness_labels_the_cap_it_ran():
    cfg = asc_cfg(seed=13, n_max=3)
    rep = uniqueness(osc_map(), asc_psi(theta=0.01), cfg)
    assert [tag for tag, _, _ in rep.variants] == [
        "start=1", "start=2", "start=3", "n_max=1", "n_max=8"]
    assert [n for _, n, _ in rep.variants] == [3, 3, 3, 1, 8]


def test_uniqueness_keeps_the_non_finite_abort_past_the_run():
    # the run stops two levels short of the level whose exponential modular
    # overflows; the rerun capped at n_max + 5 reaches it and aborts there
    exp_mod = ModularSpec(kind="orlicz", phi="exp_minus_one")

    def rho_exp(rows):
        return eval_modular(exp_mod, np.atleast_2d(rows))

    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("quad_slot1", 1.0))
    with pytest.raises(NonFiniteValueError) as exc:
        stabilize(d, asc_psi(), rho_exp, asc_cfg(seed=22))
    level = exc.value.level
    cfg = asc_cfg(seed=22, n_max=level - 2)
    table = LevelTable(d, cfg)
    out = stabilize(d, asc_psi(), rho_exp, cfg, table=table)
    for run_check in (lambda: check_uniqueness(out, rho_exp, cfg, table),
                      lambda: _rerun_uniqueness_reference(d, asc_psi(), rho_exp, cfg, table)):
        with pytest.raises(NonFiniteValueError) as exc:
            run_check()
        assert exc.value.level == level


def test_uniqueness_stops_a_rerun_below_the_magnitude_cap():
    # the cap admits level 12 and no level past it; the iteration stops at
    # n_max = 10, and the rerun capped at 15 stops at 12 instead of aborting
    cfg = asc_cfg(seed=13, n_max=10, tol=1e-30)
    cap_level = 12
    cfg = replace(cfg, magnitude_cap=2.0**cap_level * float(np.abs(cfg.probes.x).max()))
    d = osc_map()
    table = LevelTable(d, cfg)
    out = stabilize(d, asc_psi(theta=0.01), rho_rows, cfg, table=table)
    assert not out.converged
    with pytest.raises(OverflowAbort):
        table[cap_level + 1]
    rep = check_uniqueness(out, rho_rows, cfg, table)
    assert rep.variants[-1][:2] == ("n_max=15", cap_level)
    assert not rep.passed


def _pairwise_orbit_reference(iterates, weights, rho_fn, weight_tol=1e-15, defect_tol=1e-12):
    # one modular call per pair of levels
    active = weights > weight_tol
    best = 0.0
    for i in range(len(iterates)):
        for j in range(i + 1, len(iterates)):
            vals = rho_fn(iterates[i] - iterates[j])
            if np.any(~active & (vals > defect_tol)):
                return float("inf")
            if np.any(active):
                best = max(best, float(np.max(vals[active] / weights[active])))
    return best


def test_bounded_orbit_matches_the_pairwise_loop():
    out = stabilize(osc_map(), asc_psi(theta=0.01), rho_rows, asc_cfg(seed=13))
    assert len(out.iterates) > 10
    est = bounded_orbit_estimate(out.iterates, out.weights, rho_rows)
    assert np.isfinite(est) and est > 0.0
    assert est == _pairwise_orbit_reference(out.iterates, out.weights, rho_rows)
    # the orbit moves at probe 7, so a zero weight there hides a defect
    # from the induced modular
    weights = out.weights.copy()
    weights[7] = 0.0
    assert bounded_orbit_estimate(out.iterates, weights, rho_rows) == float("inf")
    assert _pairwise_orbit_reference(out.iterates, weights, rho_rows) == float("inf")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bounded_orbit_matches_the_pairwise_loop_on_every_prefix(seed):
    # unordered random levels, so every pair can hold the supremum
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(9, 40, 4)) + 1j * rng.normal(size=(9, 40, 4))
    weights = rng.uniform(0.1, 2.0, 40)
    for m in range(1, len(stack) + 1):
        est = bounded_orbit_estimate(stack[:m], weights, rho_rows)
        assert est == _pairwise_orbit_reference(stack[:m], weights, rho_rows)


def test_bounded_orbit_zero_for_fixed_point():
    d = BiMap(algebra=MATRIX2, kernel="commutator")
    out = stabilize(d, asc_psi(), rho_rows, asc_cfg())
    assert bounded_orbit_estimate(out.iterates, out.weights, rho_rows) == 0.0


def test_deltas_eventually_decrease_under_contraction():
    eps = 0.01
    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("bounded_osc", eps, boundary_safe=True))
    out = stabilize(d, asc_psi(theta=eps), rho_rows, asc_cfg(seed=21, count=128))
    assert out.contraction_estimate < 1.0
    tail = out.per_iter_deltas[-6:]
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
        stabilize(d, asc_psi(), rho_exp, asc_cfg(seed=22))
    assert exc.value.level is not None and exc.value.level < 40


@pytest.mark.parametrize("seed", [301, 302, 303, 304])
def test_random_calibrated_fixtures_satisfy_the_bound(seed):
    # the headline property on fresh fixtures: calibrate the envelope from
    # the defect inequality, extract the limit, measure the bound
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
    eps = float(rng.uniform(0.005, 0.02))
    d = BiMap(algebra=MATRIX2, kernel="tensor", tensor=t,
              perturbation=Perturbation("bounded_osc", eps, boundary_safe=True))
    probes = draw_probes(4, 96, 1.0, seed=seed)
    psi0 = PsiEnvelope(theta=1.0, p=0.5, direction="ascending")
    theta = calibrate_theta(d, psi0, rho_rows, 0.5, probes, which="A")
    psi = psi0.with_theta(theta)
    cfg = StabilizeConfig(direction="ascending", probes=probes)
    out = stabilize(d, psi, rho_rows, cfg)
    assert out.converged
    X, Z = probes.x, probes.z
    recs = check_stability_bound(d(X, Z), out.D(X, Z), psi, rho_rows, probes)
    assert all(r.margin <= 1e-9 for r in recs)
    rep = check_biadditivity(out.D, rho_rows, probes, tol=1e-8)
    assert rep.passed
    for lv in out.levels:
        assert lv.telescoping_kappa_margin <= 1e-9
        assert lv.telescoping_final_margin <= 1e-9


# --- level table ---------------------------------------------------------------


class CountingMap:
    """Wraps an ascending map and counts its calls per scaling level."""

    def __init__(self, d, probes):
        self.d = d
        self.zero_boundary = d.zero_boundary
        self.base = float(np.abs(probes.x).max())
        self.calls = Counter()

    def __call__(self, x, z):
        level = int(round(np.log2(float(np.abs(x).max()) / self.base)))
        self.calls[level] += 1
        return self.d(x, z)


def osc_map(eps=0.01):
    return BiMap(algebra=MATRIX2, kernel="commutator",
                 perturbation=Perturbation("bounded_osc", eps, boundary_safe=True))


def test_level_table_evaluates_each_level_once():
    cfg = asc_cfg(seed=13)
    d = CountingMap(osc_map(), cfg.probes)
    psi = asc_psi(theta=0.01)
    table = LevelTable(d, cfg)
    out = stabilize(d, psi, rho_rows, cfg, table=table)
    n = out.N_converged
    assert out.converged and n > 3
    assert d.calls == Counter(range(n + 1))
    rep = check_uniqueness(out, rho_rows, cfg, table)
    assert rep.passed and all(v[1] == n for v in rep.variants)
    # the reruns and their limits on the probes read the table only
    assert d.calls == Counter(range(n + 1))
    assert table[n] is table[n] and not table[n].flags.writeable


def test_shared_table_equals_fresh_runs():
    cfg = asc_cfg(seed=13)
    d, psi = osc_map(), asc_psi(theta=0.01)
    table = LevelTable(d, cfg)
    shared = stabilize(d, psi, rho_rows, cfg, table=table)
    fresh = stabilize(d, psi, rho_rows, cfg)
    for name in ("N_converged", "converged", "per_iter_deltas", "sup_rho_deltas",
                 "contraction_estimate", "bound_margin", "levels"):
        assert getattr(shared, name) == getattr(fresh, name), name
    assert np.array_equal(shared.iterates, fresh.iterates)
    assert (check_uniqueness(shared, rho_rows, cfg, table)
            == check_uniqueness(fresh, rho_rows, cfg, LevelTable(d, cfg)))


def test_level_table_refuses_other_iterates():
    cfg = asc_cfg(seed=13)
    d, psi = osc_map(), asc_psi(theta=0.01)
    table = LevelTable(d, cfg)
    # n_max and tol do not change the iterates
    out = stabilize(d, psi, rho_rows, StabilizeConfig(
        direction="ascending", probes=cfg.probes, n_max=35, tol=1e-9), table=table)
    others = [
        (d, asc_cfg(seed=14)),
        (d, StabilizeConfig(direction="ascending", probes=cfg.probes, magnitude_cap=1e12)),
        (osc_map(), cfg),
    ]
    for other_d, other in others:
        with pytest.raises(ConfigError):
            stabilize(other_d, psi, rho_rows, other, table=table)
        if other_d is d:
            with pytest.raises(ConfigError):
                check_uniqueness(out, rho_rows, other, table)


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
