"""Acceptance suite: every quantitative exit criterion, one test each,
with a printed PASS/FAIL line per criterion (run with -s to stream them)."""

import time

import numpy as np
import pytest

from modstab import (
    BiMap,
    ModularSpec,
    Perturbation,
    check_inequality_A,
    check_inequality_B,
    draw_probes,
    eval_modular,
    luxemburg_norm,
    preset,
    rho_tilde_contraction_margin,
    run_scenario,
    three_unimodular_decomposition,
)
from modstab.modular import _bisect_luxemburg

MATRIX2 = preset("matrix2")
NORM = ModularSpec(kind="norm")


def rho_rows(rows):
    return eval_modular(NORM, np.atleast_2d(rows))


def _criterion(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def _payloads(result, check):
    return [r.payload for r in result.records if r.payload.get("check") == check]


@pytest.fixture(scope="module")
def warmed():
    # one small run first, so first-call set-up is not timed
    run_scenario("superstability-commutator", probes_override=32)
    return True


@pytest.fixture(scope="module")
def ascending_run(warmed):
    t0 = time.perf_counter()
    result = run_scenario("corollary-ascending-p05")
    return result, time.perf_counter() - t0


def test_ac01_ascending_end_to_end(ascending_run):
    result, elapsed = ascending_run
    stab = _payloads(result, "stabilize")[0]
    bounds = _payloads(result, "stability_bound")
    biadd = _payloads(result, "biadditivity_slot1") + _payloads(result, "biadditivity_slot2")
    ok = (
        result.exit_code == 0
        and stab["converged"]
        and stab["n_converged"] <= 40
        and all(p["margin"] <= 1e-9 for p in bounds)
        and all(p["residual"] <= 1e-8 for p in biadd)
        and elapsed < 10.0
    )
    _criterion(
        "AC-1 ascending end-to-end",
        ok,
        f"exit={result.exit_code} N={stab['n_converged']} "
        f"worst_bound_margin={max(p['margin'] for p in bounds):.2e} "
        f"worst_biadd={max(p['residual'] for p in biadd):.2e} elapsed={elapsed:.2f}s",
    )


def test_ac02_descending_end_to_end(warmed):
    result = run_scenario("corollary-descending-p2")
    stab = _payloads(result, "stabilize")[0]
    bounds = _payloads(result, "stability_bound")
    biadd = _payloads(result, "biadditivity_slot1") + _payloads(result, "biadditivity_slot2")
    tel = _payloads(result, "telescoping")
    ok = (
        result.exit_code == 0
        and stab["converged"]
        and stab["n_converged"] <= 40
        and all(p["margin"] <= 1e-9 for p in bounds)
        and all(p["residual"] <= 1e-8 for p in biadd)
        and tel
        and all(p["kappa_margin"] <= 1e-9 for p in tel)
    )
    _criterion(
        "AC-2 descending end-to-end",
        ok,
        f"exit={result.exit_code} N={stab['n_converged']} levels={len(tel)} "
        f"worst_kappa_margin={max(p['kappa_margin'] for p in tel):.2e}",
    )


def test_ac03_descending_mirror_inequality(warmed):
    result = run_scenario("inequality-B-descending")
    ineq = _payloads(result, "inequality_B")
    tel = _payloads(result, "telescoping")
    ok = (
        result.exit_code == 0
        and ineq
        and all(p["margin"] <= 1e-9 for p in ineq)
        and tel
        and all(p["kappa_margin"] <= 1e-9 for p in tel)
    )
    _criterion(
        "AC-3 mirror inequality descending",
        ok,
        f"exit={result.exit_code} probes={len(ineq)} levels={len(tel)} "
        f"worst_defect_margin={max(p['margin'] for p in ineq):.2e}",
    )


def _random_form_map(seed, perturbation=None):
    """The commutator or the product on matrix2, by the seed's parity, times
    a random complex coefficient, plus ``perturbation``."""
    rng = np.random.default_rng(seed)
    return BiMap(algebra=MATRIX2, kernel=("commutator", "product")[seed % 2],
                 coeff=complex(rng.normal(), rng.normal()), perturbation=perturbation)


def test_ac04_no_false_certifications(warmed):
    rng_seeds = range(100, 120)
    clean_worst = 0.0
    for i, seed in enumerate(rng_seeds):
        f = _random_form_map(seed)
        probes = draw_probes(4, 64, 1.0, seed=seed)
        for recs in (
            check_inequality_A(f, rho_rows, 0.5, None, probes),
            check_inequality_B(f, rho_rows, 0.5, None, probes),
        ):
            clean_worst = max(clean_worst, float(recs.lhs.max()))
    clean_ok = clean_worst <= 1e-10

    missed = 0
    for i, seed in enumerate(rng_seeds):
        f = _random_form_map(seed + 1000, Perturbation("quad_slot1", 0.5))
        probes = draw_probes(4, 64, 1.0, seed=seed + 1000)
        recs_a = check_inequality_A(f, rho_rows, 0.5, None, probes)
        recs_b = check_inequality_B(f, rho_rows, 0.5, None, probes)
        a_hit = any(not recs_a[j].passed for j in range(0, 4))  # y = x, w = 0
        b_hit = any(not recs_b[j].passed for j in range(4, 8))  # y = w = 0
        certified_a = all(r.passed for r in recs_a)
        certified_b = all(r.passed for r in recs_b)
        if not (a_hit and b_hit) or certified_a or certified_b:
            missed += 1
    ok = clean_ok and missed == 0
    _criterion(
        "AC-4 bi-additivity certification",
        ok,
        f"clean_worst_defect={clean_worst:.2e} contaminated_missed={missed}/20",
    )


def test_ac05_three_unimodular_decomposition():
    three_unimodular_decomposition(0.2 + 0.1j)  # warm the path before timing
    rng = np.random.default_rng(2024)
    mags = 3.0 * np.sqrt(rng.uniform(0.0, 1.0, 1000))
    angs = rng.uniform(0.0, 2.0 * np.pi, 1000)
    ws = mags * np.exp(1j * angs)
    t0 = time.perf_counter()
    triples = [three_unimodular_decomposition(w) for w in ws]
    elapsed = time.perf_counter() - t0
    sum_err = max(abs(t.total - w) for t, w in zip(triples, ws))
    mod_err = max(
        abs(abs(mu) - 1.0) for t in triples for mu in (t.mu1, t.mu2, t.mu3)
    )
    boundary = three_unimodular_decomposition(3.0)
    exact = (boundary.mu1, boundary.mu2, boundary.mu3) == (1 + 0j, 1 + 0j, 1 + 0j)
    ok = sum_err <= 1e-12 and mod_err <= 1e-12 and exact and elapsed < 0.1
    _criterion(
        "AC-5 three-unimodular decomposition",
        ok,
        f"sum_err={sum_err:.2e} mod_err={mod_err:.2e} boundary_exact={exact} "
        f"elapsed={elapsed * 1e3:.1f}ms",
    )


def test_ac06_luxemburg_bisection_oracle():
    # the bisection, run on the homogeneous modulars, against their closed
    # forms, which luxemburg_norm returns for them
    rng = np.random.default_rng(606)
    worst = 0.0
    modulars = [ModularSpec(kind="power", p=p) for p in (1.0, 1.5, 2.0, 3.0)]
    modulars += [ModularSpec(kind="orlicz", phi=phi) for phi in ("linear", "square")]
    for m in modulars:
        q = m.homogeneity
        v = rng.normal(size=(250, 4)) + 1j * rng.normal(size=(250, 4))
        oracle = np.sum(np.abs(v) ** q, axis=1) ** (1.0 / q)
        assert np.max(np.abs(luxemburg_norm(m, v) - oracle)) <= 1e-15 * np.max(oracle)
        worst = max(worst, float(np.max(np.abs(_bisect_luxemburg(m, v, 1e-12) - oracle))))
    ok = worst <= 1e-9
    _criterion("AC-6 Luxemburg norm vs closed form", ok, f"worst_abs_err={worst:.2e}")


def test_ac07_function_space_contraction(ascending_run):
    result, _ = ascending_run
    psi = result.context["psi"]
    probes = result.context["probes"]

    rng = np.random.default_rng(707)
    pool = []
    for k in range(25):
        eps = float(rng.uniform(0.002, 0.02))
        kind = k % 3
        if kind == 0:
            pert = Perturbation("bounded_osc", eps, boundary_safe=bool(k % 2))
        elif kind == 1:
            pert = Perturbation("power_env", eps, p=0.5)
        else:
            pert = Perturbation("quad_slot1", eps)
        pool.append(BiMap(algebra=MATRIX2, kernel=None, perturbation=pert))

    worst = -np.inf
    for k in range(100):
        delta = pool[rng.integers(len(pool))]
        gamma = pool[rng.integers(len(pool))]
        _, _, margin = rho_tilde_contraction_margin(rho_rows, psi, delta, gamma, probes)
        worst = max(worst, margin)
    ok = worst <= 1e-9
    _criterion("AC-7 induced-modular contraction", ok, f"worst_margin={worst:.2e} pairs=100")


def test_ac08_superstability(warmed):
    result = run_scenario("superstability-commutator")
    sup = _payloads(result, "superstability")[0]
    cert = _payloads(result, "superstability_certificate")[0]
    slot1 = _payloads(result, "biderivation_slot1")
    ok = (
        result.exit_code == 0
        and sup["sup_residual"] <= 1e-10
        and all(p["lhs"] <= 1e-12 for p in slot1)
        and cert["limit_gap"] <= 1e-12
    )
    _criterion(
        "AC-8 superstability certificate",
        ok,
        f"scaling_residual={sup['sup_residual']:.2e} "
        f"worst_leibniz={max(p['lhs'] for p in slot1):.2e} limit_gap={cert['limit_gap']:.2e}",
    )


def test_ac09_modular_axioms_suite(warmed):
    result = run_scenario("axioms-suite")
    rows = _payloads(result, "modular_axiom")
    healthy = [p for p in rows if p["fixture"] != "dead-zone-broken"]
    broken_i = [
        p for p in rows if p["fixture"] == "dead-zone-broken" and p["axiom"] == "i"
    ]
    ok = (
        result.exit_code == 0
        and healthy
        and all(p["margin"] <= 1e-12 for p in healthy)
        and broken_i
        and broken_i[0]["expected_violation"]
        and broken_i[0]["margin"] > 0
    )
    _criterion(
        "AC-9 modular axioms suite",
        ok,
        f"exit={result.exit_code} healthy_rows={len(healthy)} "
        f"worst_margin={max(p['margin'] for p in healthy):.2e} broken_detected=True",
    )


def test_ac10_bounded_orbit(ascending_run):
    result, _ = ascending_run
    orbit = _payloads(result, "bounded_orbit")[0]
    psi = result.context["psi"]
    cap = 1.0 / (1.0 - psi.L) + 1e-6
    ok = orbit["estimate"] <= cap and orbit["cap"] == pytest.approx(cap)
    _criterion(
        "AC-10 bounded orbit",
        ok,
        f"estimate={orbit['estimate']:.4f} cap={cap:.4f}",
    )
