"""Scenario configs, the builtin catalog, envelope calibration, and the
run pipeline that wires modular / algebra / map / envelope / probes into
stabilize-then-verify and emits report records.

Configs are plain JSON-able dicts (complex numbers as [re, im] pairs;
no code execution).  The envelope amplitude may be given as the string
"calibrate", in which case theta is fixed by brute-force margin
maximization of the scenario's functional inequality over an enlarged
probe family: the scenario probes, a 10^4-tuple random family, and the
scaled degenerate tuples the iteration actually traverses.  The result
is deterministic for a fixed seed and is echoed into the report.
"""

import copy
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, _kernels
from .algebra import AlgebraSpec, preset
from .bimaps import BiMap, Perturbation, PsiEnvelope, check_psi_law, draw_probes
from .errors import (
    BracketDivergenceError,
    ConfigError,
    NonFiniteValueError,
    OverflowAbort,
    PreconditionError,
)
from .modular import (
    ModularSpec,
    check_delta2,
    check_modular_axioms,
    check_remark_properties,
    coeff_norm_fn,
    draw_axiom_samples,
    draw_remark_samples,
    eval_modular,
)
from .report import ReportRecord, exit_code_from_records, header_record
from .stabilize import (
    StabilizeConfig,
    bounded_orbit_estimate,
    check_uniqueness,
    stabilize,
)
from .verify import (
    IDENTITY_TOL,
    INEQUALITY_TOL,
    check_biadditivity,
    check_biderivation,
    check_first_slot_linearity,
    check_inequality_A,
    check_inequality_B,
    check_stability_bound,
    check_superstability,
    default_linearity_scalars,
    inequality_parts,
)

_KNOWN_CHECKS = (
    "inequality_A",
    "inequality_B",
    "stability_bound",
    "biadditivity",
    "first_slot_linearity",
    "biderivation",
    "superstability",
    "telescoping",
    "bounded_orbit",
    "uniqueness",
)

CALIBRATION_EXTRA_COUNT = 10_000
CALIBRATION_SAFETY = 1.05
CALIBRATION_SEED_OFFSET = 104_729


def _complex_of(value, label):
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"{label} must be a number or an [re, im] pair")


def build_algebra(cfg):
    if not isinstance(cfg, dict):
        raise ConfigError("algebra section must be a mapping")
    if "preset" in cfg:
        return preset(cfg["preset"], dim=cfg.get("dim"))
    if "dim" in cfg and "structure" in cfg:
        dim = int(cfg["dim"])
        flat = cfg["structure"]
        if len(flat) != dim**3:
            raise ConfigError(f"structure needs {dim ** 3} entries, got {len(flat)}")
        c = np.array([_complex_of(v, "structure entry") for v in flat]).reshape(dim, dim, dim)
        return AlgebraSpec(dim=dim, structure=c)
    raise ConfigError("algebra needs a preset name or dim + structure constants")


def build_modular(cfg):
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("modular section needs a kind")
    return ModularSpec(
        kind=cfg["kind"],
        p=float(cfg.get("p", 2.0)),
        phi=cfg.get("phi", "square"),
        convex=bool(cfg.get("convex", True)),
        kappa=float(cfg.get("kappa", 2.0)),
    )


def build_bimap(cfg, algebra):
    if not isinstance(cfg, dict):
        raise ConfigError("map section must be a mapping")
    kernel_cfg = cfg.get("kernel")
    kernel = None
    coeff = 1.0 + 0.0j
    tensor = None
    if kernel_cfg is not None:
        form = kernel_cfg.get("form")
        if form == "tensor":
            vd = int(kernel_cfg.get("value_dim", algebra.dim))
            flat = kernel_cfg["tensor"]
            if len(flat) != algebra.dim * algebra.dim * vd:
                raise ConfigError("kernel tensor has the wrong number of entries")
            tensor = np.array([_complex_of(v, "tensor entry") for v in flat]).reshape(
                algebra.dim, algebra.dim, vd
            )
            kernel = "tensor"
        else:
            kernel = form
            coeff = _complex_of(kernel_cfg.get("c", 1.0), "kernel coefficient")
    pert_cfg = cfg.get("perturbation")
    pert = None
    if pert_cfg is not None:
        pert = Perturbation(
            name=pert_cfg["name"],
            epsilon=float(pert_cfg["epsilon"]),
            p=float(pert_cfg.get("p", 2.0)),
            boundary_safe=bool(pert_cfg.get("boundary_safe", False)),
        )
    return BiMap(
        algebra=algebra,
        kernel=kernel,
        coeff=coeff,
        tensor=tensor,
        perturbation=pert,
        zero_boundary=bool(cfg.get("zero_boundary", True)),
    )


def build_psi(cfg, mspec):
    """Envelope from config; theta == "calibrate" yields a unit-amplitude
    prototype to be rescaled by the calibration pass."""
    if cfg is None:
        return None, False
    if cfg.get("form", "power") != "power":
        raise ConfigError("configs only expose the power envelope form")
    theta = cfg.get("theta", 1.0)
    needs_calibration = theta == "calibrate"
    psi = PsiEnvelope(
        theta=1.0 if needs_calibration else float(theta),
        p=float(cfg.get("p", 0.5)),
        L=(float(cfg["L"]) if "L" in cfg and cfg["L"] is not None else None),
        direction=cfg.get("direction", "ascending"),
        norm_fn=coeff_norm_fn(mspec),
    )
    return psi, needs_calibration


def calibrate_theta(
    bimap,
    psi_proto,
    rho_fn,
    s,
    probes,
    which="A",
    n_levels=40,
    extra_count=CALIBRATION_EXTRA_COUNT,
    safety=CALIBRATION_SAFETY,
):
    """Smallest theta (times a safety factor) for which the inequality
    holds on the enlarged family; raises if a zero-envelope tuple carries a
    genuine defect, since no amplitude can repair that."""
    psi1 = psi_proto.with_theta(1.0)
    dim = bimap.algebra.dim
    zeros = np.zeros_like(probes.x)
    ones = np.ones(len(probes.x), dtype=np.complex128)

    families = [(probes.x, probes.y, probes.z, probes.w, probes.lam)]
    extra = draw_probes(dim, max(extra_count, 17), probes.radius, probes.seed + CALIBRATION_SEED_OFFSET)
    families.append((extra.x, extra.y, extra.z, extra.w, extra.lam))

    blocks = []
    for i in range(n_levels):
        if psi_proto.direction == "ascending":
            u = (2.0**i) * probes.x
            blocks.append((u, u))
        elif which == "A":
            u = probes.x / (2.0 ** (i + 1))
            blocks.append((u, u))
        else:
            u = probes.x / (2.0**i)
            blocks.append((u, zeros))
    if blocks:
        xs = np.concatenate([b[0] for b in blocks])
        ys = np.concatenate([b[1] for b in blocks])
        reps = len(blocks)
        families.append(
            (xs, ys, np.tile(probes.z, (reps, 1)), np.tile(zeros, (reps, 1)), np.tile(ones, reps))
        )

    required = 0.0
    for X, Y, Z, W, lam in families:
        lhs, rhs0 = inequality_parts(bimap, rho_fn, s, X, Y, Z, W, lam, which=which)
        unit = psi1(X, Y) * psi1(Z, W)
        need = lhs - rhs0
        weighted = unit > 1e-15
        if np.any(~weighted & (need > 1e-12)):
            raise ConfigError(
                "defect does not vanish where the envelope does; no theta can calibrate it"
            )
        if np.any(weighted):
            required = max(required, float(np.max(need[weighted] / unit[weighted])))
    return max(required * safety, 1e-12)


# ---------------------------------------------------------------------------
# builtin catalog
# ---------------------------------------------------------------------------


def builtin_scenarios():
    common_modular = {"kind": "norm", "kappa": 2.0}
    return {
        "corollary-ascending-p05": {
            "name": "corollary-ascending-p05",
            "algebra": {"preset": "matrix2"},
            "modular": dict(common_modular),
            "map": {
                "kernel": {"form": "commutator", "c": [1.0, 0.0]},
                "perturbation": {
                    "name": "bounded_osc",
                    "epsilon": 0.01,
                    "boundary_safe": True,
                },
            },
            "psi": {"form": "power", "theta": "calibrate", "p": 0.5, "direction": "ascending"},
            "s": [0.5, 0.0],
            "rho_tilde_weight": "psi_xx_z0",
            "probes": {"count": 512, "radius": 1.0, "seed": 20107},
            "iteration": {"direction": "ascending", "n_max": 40, "tol": 1e-10},
            "checks": [
                "inequality_A",
                "stability_bound",
                "biadditivity",
                "first_slot_linearity",
                "telescoping",
                "bounded_orbit",
                "uniqueness",
            ],
        },
        "corollary-descending-p2": {
            "name": "corollary-descending-p2",
            "algebra": {"preset": "matrix2"},
            "modular": dict(common_modular),
            "map": {
                "kernel": {"form": "commutator", "c": [1.0, 0.0]},
                "perturbation": {"name": "power_env", "epsilon": 0.01, "p": 2.0},
            },
            "psi": {"form": "power", "theta": "calibrate", "p": 2.0, "direction": "descending"},
            "s": [0.5, 0.0],
            "rho_tilde_weight": "psi_xx_z0",
            "probes": {"count": 512, "radius": 1.0, "seed": 30211},
            "iteration": {"direction": "descending", "n_max": 40, "tol": 1e-10},
            "checks": ["inequality_A", "stability_bound", "biadditivity", "telescoping"],
        },
        "inequality-B-descending": {
            "name": "inequality-B-descending",
            "algebra": {"preset": "matrix2"},
            "modular": dict(common_modular),
            "map": {
                "kernel": {"form": "commutator", "c": [1.0, 0.0]},
                "perturbation": {"name": "power_env", "epsilon": 0.01, "p": 2.0},
            },
            "psi": {"form": "power", "theta": "calibrate", "p": 2.0, "direction": "descending"},
            "s": [0.5, 0.0],
            "rho_tilde_weight": "psi_x0_z0",
            "probes": {"count": 512, "radius": 1.0, "seed": 40487},
            "iteration": {"direction": "descending", "n_max": 40, "tol": 1e-10},
            "checks": ["inequality_B", "stability_bound", "biadditivity", "telescoping"],
        },
        "superstability-commutator": {
            "name": "superstability-commutator",
            "algebra": {"preset": "matrix2"},
            "modular": dict(common_modular),
            "map": {"kernel": {"form": "commutator", "c": [1.0, 0.0]}, "perturbation": None},
            "psi": {"form": "power", "theta": 1.0, "p": 0.5, "direction": "ascending"},
            "s": [0.5, 0.0],
            "rho_tilde_weight": "psi_xx_z0",
            "probes": {"count": 256, "radius": 1.0, "seed": 505},
            "iteration": {"direction": "ascending", "n_max": 40, "tol": 1e-12},
            "checks": [
                "superstability",
                "biderivation",
                "inequality_A",
                "stability_bound",
                "biadditivity",
            ],
            "biderivation_assert_slot2": True,
        },
        "lemma-falsifier": {
            "name": "lemma-falsifier",
            "algebra": {"preset": "complex"},
            "modular": {"kind": "norm", "kappa": 2.0},
            "map": {
                "kernel": None,
                "perturbation": {"name": "quad_slot1", "epsilon": 1.0},
            },
            "psi": None,
            "s": [0.5, 0.0],
            "rho_tilde_weight": "psi_xx_z0",
            "probes": {"count": 64, "radius": 1.0, "seed": 60601},
            "iteration": None,
            "checks": ["inequality_A"],
        },
        "axioms-suite": {
            "name": "axioms-suite",
            "kind": "axioms",
            "samples": {"count": 10_000, "radius": 1.0, "seed": 70809, "dim": 4},
            "fixtures": [
                {"label": "norm", "modular": {"kind": "norm", "kappa": 2.0}, "check_delta2": True},
                {
                    "label": "power-p1",
                    "modular": {"kind": "power", "p": 1.0, "kappa": 2.0},
                    "check_delta2": True,
                },
                {
                    "label": "orlicz-square",
                    "modular": {"kind": "orlicz", "phi": "square", "kappa": 2.0},
                    "check_delta2": False,
                },
                {
                    "label": "dead-zone-broken",
                    "modular": {"kind": "orlicz", "phi": "dead_zone", "kappa": 2.0},
                    "check_delta2": False,
                    "expect_violation": "axiom_i",
                },
            ],
        },
    }


def list_builtin_scenarios():
    return sorted(builtin_scenarios())


def load_config(source):
    """Resolve a builtin name, a JSON file path, or a dict to a config dict."""
    if isinstance(source, dict):
        return copy.deepcopy(source)
    catalog = builtin_scenarios()
    if source in catalog:
        return catalog[source]
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{source!r} is neither a builtin scenario nor a readable file")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {source!r} is not valid JSON: {e}")


# ---------------------------------------------------------------------------
# run pipeline
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    exit_code: int
    header: dict
    records: list
    context: dict = field(default_factory=dict)
    elapsed: float = 0.0


def _check_records_to_report(name, recs):
    out = []
    for r in recs:
        payload = {
            "check": r.check_name,
            "probe_id": r.probe_id,
            "lhs": r.lhs,
            "rhs": r.rhs,
            "margin": r.margin,
        }
        payload.update(r.extra)
        out.append(
            ReportRecord(
                scenario=name, stage="check", payload=payload, passed=r.passed, advisory=r.advisory
            )
        )
    return out


def _run_stability(cfg, name, seed_override, probes_override):
    algebra = build_algebra(cfg.get("algebra", {}))
    mspec = build_modular(cfg.get("modular", {}))

    def rho_fn(rows):
        return eval_modular(mspec, np.atleast_2d(rows))

    bimap = build_bimap(cfg.get("map", {}), algebra)
    s = _complex_of(cfg.get("s", [0.5, 0.0]), "s")
    if abs(s) >= 1.0 or s == 0:
        raise ConfigError(f"s must be nonzero with |s| < 1, got {s}")

    probes_cfg = cfg.get("probes", {})
    seed = int(seed_override if seed_override is not None else probes_cfg.get("seed", 0))
    count = int(probes_override if probes_override is not None else probes_cfg.get("count", 512))
    radius = float(probes_cfg.get("radius", 1.0))
    probes = draw_probes(algebra.dim, count, radius, seed)

    weight_kind = cfg.get("rho_tilde_weight", "psi_xx_z0")
    checks = list(cfg.get("checks", []))
    for chk in checks:
        if chk not in _KNOWN_CHECKS:
            raise ConfigError(f"unknown check {chk!r}")

    psi, needs_calibration = build_psi(cfg.get("psi"), mspec)

    iter_cfg = cfg.get("iteration")
    st_cfg = None
    if iter_cfg is not None:
        if psi is None:
            raise ConfigError("iteration requires an envelope")
        direction = iter_cfg.get("direction", psi.direction)
        if direction != psi.direction:
            raise ConfigError("iteration direction disagrees with the envelope direction")
        pert = bimap.perturbation
        if pert is not None and pert.name == "power_env":
            if direction == "ascending" and pert.p >= 1.0:
                raise ConfigError("ascending runs need a power_env exponent p < 1")
            if direction == "descending" and pert.p <= 1.0:
                raise ConfigError("descending runs need a power_env exponent p > 1")
        st_cfg = StabilizeConfig(
            direction=direction,
            probes=probes,
            n_max=int(iter_cfg.get("n_max", 40)),
            tol=float(iter_cfg.get("tol", 1e-10)),
            magnitude_cap=float(iter_cfg.get("magnitude_cap", 1e15)),
        )

    theta = None
    if psi is not None and needs_calibration:
        which = "B" if "inequality_B" in checks else "A"
        theta = calibrate_theta(
            bimap,
            psi,
            rho_fn,
            s,
            probes,
            which=which,
            n_levels=(st_cfg.n_max if st_cfg is not None else 40),
        )
        psi = psi.with_theta(theta)
    elif psi is not None:
        theta = psi.theta

    records = []
    echo = {
        "config_name": name,
        "algebra": algebra.preset_name or f"dim-{algebra.dim}",
        "modular": mspec.kind,
        "weight": weight_kind,
        "s": [s.real, s.imag],
        "probes": {"count": count, "radius": radius, "seed": seed},
    }
    if psi is not None:
        echo["theta"] = psi.theta
        echo["L"] = psi.L
        echo["psi_p"] = psi.p
        echo["direction"] = psi.direction
    records.append(ReportRecord(scenario=name, stage="config", payload=echo, passed=True))

    if psi is not None:
        law = check_psi_law(psi, probes)
        records.append(
            ReportRecord(
                scenario=name,
                stage="check",
                payload={
                    "check": "psi_law",
                    "law_margin": law.law_margin,
                    "decay_ok": law.decay_ok,
                    "decay_ratio": law.decay_ratio,
                },
                passed=law.passed,
            )
        )
        if not law.passed:
            return records, {"algebra": algebra, "probes": probes}

    outcome = None
    context = {
        "algebra": algebra,
        "modular": mspec,
        "bimap": bimap,
        "psi": psi,
        "probes": probes,
        "weight_kind": weight_kind,
        "rho_fn": rho_fn,
        "s": s,
    }
    if st_cfg is not None:
        try:
            outcome = stabilize(
                bimap,
                psi,
                rho_fn,
                st_cfg,
                weight_kind=weight_kind,
                kappa=mspec.kappa,
                telescoping="telescoping" in checks,
                skip_psi_check=True,
            )
        except (OverflowAbort, NonFiniteValueError) as e:
            records.append(
                ReportRecord(
                    scenario=name,
                    stage="iterate",
                    payload={
                        "error": str(e),
                        "level": getattr(e, "level", None),
                        "probe_id": getattr(e, "probe_id", None),
                    },
                    passed=False,
                )
            )
            return records, context
        context["outcome"] = outcome
        for lv in outcome.levels:
            records.append(
                ReportRecord(
                    scenario=name,
                    stage="iterate",
                    payload={
                        "level": lv.level,
                        "sup_rho_delta": lv.sup_rho_delta,
                        "rho_tilde_delta": lv.rho_tilde_delta,
                    },
                    passed=True,
                )
            )
        records.append(
            ReportRecord(
                scenario=name,
                stage="check",
                payload={
                    "check": "stabilize",
                    "n_converged": outcome.N_converged,
                    "converged": outcome.converged,
                    "contraction_estimate": outcome.contraction_estimate,
                    "bound_margin": outcome.bound_margin,
                },
                passed=outcome.converged,
            )
        )

    d_tol = 10.0 * st_cfg.tol if st_cfg is not None else IDENTITY_TOL
    for chk in checks:
        if chk == "inequality_A":
            records += _check_records_to_report(
                name, check_inequality_A(bimap, rho_fn, s, psi, probes)
            )
        elif chk == "inequality_B":
            records += _check_records_to_report(
                name, check_inequality_B(bimap, rho_fn, s, psi, probes)
            )
        elif chk == "stability_bound":
            if outcome is None:
                raise ConfigError("stability_bound requires an iteration section")
            records += _check_records_to_report(
                name,
                check_stability_bound(
                    bimap, outcome.D, psi, rho_fn, probes, corollary_theta=psi.theta
                ),
            )
        elif chk == "biadditivity":
            target = outcome.D if outcome is not None else bimap
            rep = check_biadditivity(target, rho_fn, probes, tol=d_tol)
            for slot, sup, wit in (
                ("slot1", rep.slot1_sup, rep.slot1_witness),
                ("slot2", rep.slot2_sup, rep.slot2_witness),
            ):
                records.append(
                    ReportRecord(
                        scenario=name,
                        stage="check",
                        payload={
                            "check": f"biadditivity_{slot}",
                            "residual": sup,
                            "witness": wit,
                            "tol": d_tol,
                        },
                        passed=sup <= d_tol,
                    )
                )
        elif chk == "first_slot_linearity":
            target = outcome.D if outcome is not None else bimap
            scalars = default_linearity_scalars(seed + 3)
            records += _check_records_to_report(
                name,
                check_first_slot_linearity(target, rho_fn, scalars, probes, tol=d_tol),
            )
        elif chk == "biderivation":
            records += _check_records_to_report(
                name,
                check_biderivation(
                    bimap,
                    rho_fn,
                    algebra,
                    psi,
                    probes,
                    assert_slot2=bool(cfg.get("biderivation_assert_slot2", False)),
                ),
            )
        elif chk == "superstability":
            rep = check_superstability(bimap, rho_fn, probes)
            records.append(
                ReportRecord(
                    scenario=name,
                    stage="check",
                    payload={"check": "superstability", "sup_residual": rep.sup_residual},
                    passed=rep.is_superstable,
                )
            )
            if rep.is_superstable and outcome is not None:
                gap = float(
                    np.max(rho_fn(outcome.D(probes.x, probes.z) - bimap(probes.x, probes.z)))
                )
                records.append(
                    ReportRecord(
                        scenario=name,
                        stage="check",
                        payload={"check": "superstability_certificate", "limit_gap": gap},
                        passed=gap <= 1e-12,
                    )
                )
        elif chk == "telescoping":
            if outcome is None:
                raise ConfigError("telescoping requires an iteration section")
            for lv in outcome.levels:
                records.append(
                    ReportRecord(
                        scenario=name,
                        stage="check",
                        payload={
                            "check": "telescoping",
                            "level": lv.level,
                            "kappa_margin": lv.telescoping_kappa_margin,
                            "final_margin": lv.telescoping_final_margin,
                        },
                        passed=(
                            lv.telescoping_kappa_margin <= INEQUALITY_TOL
                            and lv.telescoping_final_margin <= INEQUALITY_TOL
                        ),
                    )
                )
        elif chk == "bounded_orbit":
            if outcome is None:
                raise ConfigError("bounded_orbit requires an iteration section")
            est = bounded_orbit_estimate(outcome.iterates, outcome.weights, rho_fn)
            cap = 1.0 / (1.0 - psi.L) + 1e-6
            records.append(
                ReportRecord(
                    scenario=name,
                    stage="check",
                    payload={"check": "bounded_orbit", "estimate": est, "cap": cap},
                    passed=est <= cap,
                )
            )
        elif chk == "uniqueness":
            if st_cfg is None:
                raise ConfigError("uniqueness requires an iteration section")
            rep = check_uniqueness(bimap, psi, rho_fn, st_cfg, weight_kind=weight_kind)
            records.append(
                ReportRecord(
                    scenario=name,
                    stage="check",
                    payload={
                        "check": "uniqueness",
                        "max_disagreement": rep.max_disagreement,
                        "variants": [list(v) for v in rep.variants],
                    },
                    passed=rep.passed,
                )
            )
    return records, context


def _run_axioms(cfg, name, seed_override, probes_override):
    samples_cfg = cfg.get("samples", {})
    seed = int(seed_override if seed_override is not None else samples_cfg.get("seed", 0))
    count = int(probes_override if probes_override is not None else samples_cfg.get("count", 10_000))
    radius = float(samples_cfg.get("radius", 1.0))
    dim = int(samples_cfg.get("dim", 4))

    records = [
        ReportRecord(
            scenario=name,
            stage="config",
            payload={
                "config_name": name,
                "kind": "axioms",
                "samples": {"count": count, "radius": radius, "seed": seed, "dim": dim},
            },
            passed=True,
        )
    ]
    context = {}
    for idx, fixture in enumerate(cfg.get("fixtures", [])):
        label = fixture.get("label", f"fixture-{idx}")
        m = build_modular(fixture["modular"])
        expect = fixture.get("expect_violation")
        samples = draw_axiom_samples(dim, count, seed + idx, radius)
        report = check_modular_axioms(m, samples)
        context[label] = report
        for axiom, chk in report.checks.items():
            expected_violation = expect == f"axiom_{axiom}"
            ok = (not chk.passed) if expected_violation else chk.passed
            records.append(
                ReportRecord(
                    scenario=name,
                    stage="check",
                    payload={
                        "check": "modular_axiom",
                        "fixture": label,
                        "axiom": axiom,
                        "margin": chk.margin,
                        "witness": chk.witness,
                        "expected_violation": expected_violation,
                    },
                    passed=ok,
                )
            )
        if m.convex:
            remark = check_remark_properties(m, draw_remark_samples(dim, count, seed + 50 + idx, radius))
            records.append(
                ReportRecord(
                    scenario=name,
                    stage="check",
                    payload={
                        "check": "remark_properties",
                        "fixture": label,
                        "increasing_margin": remark.increasing.margin,
                        "scalar_margin": remark.scalar_bound.margin if remark.scalar_bound else None,
                        "half_double_margin": remark.half_double.margin if remark.half_double else None,
                    },
                    passed=remark.passed,
                )
            )
        if fixture.get("check_delta2", False):
            rng = np.random.default_rng(seed + 100 + idx)
            pts = rng.uniform(0.1, 1.0, (256, dim)) + 1j * rng.uniform(0.1, 1.0, (256, dim))
            d2 = check_delta2(m, pts)
            records.append(
                ReportRecord(
                    scenario=name,
                    stage="check",
                    payload={"check": "delta2", "fixture": label, "kappa_hat": d2.kappa_hat},
                    passed=d2.passed,
                )
            )
    return records, context


def run_scenario(source, seed_override=None, probes_override=None):
    """Execute a scenario given as a builtin name, file path, or dict.

    Returns a RunResult whose exit code is 0 when every asserted record
    passes, 1 when any check fails, 2 on configuration errors and on
    numeric aborts (overflow, non-finite values, a diverging bracket) that
    escape the stages which report them as records.
    """
    t0 = time.perf_counter()
    try:
        cfg = load_config(source)
        name = cfg.get("name", "unnamed")
        header = header_record(
            cfg,
            seed=seed_override if seed_override is not None else _default_seed(cfg),
            version=__version__,
            backend=_kernels.ACTIVE_BACKEND,
        )
        if cfg.get("kind", "stability") == "axioms":
            records, context = _run_axioms(cfg, name, seed_override, probes_override)
        else:
            records, context = _run_stability(cfg, name, seed_override, probes_override)
    except (
        ConfigError,
        PreconditionError,
        NonFiniteValueError,
        OverflowAbort,
        BracketDivergenceError,
    ) as e:
        diag = ReportRecord(
            scenario=source if isinstance(source, str) else "config",
            stage="config",
            payload={"error": str(e)},
            passed=False,
        )
        header = header_record({}, seed=None, version=__version__, backend=_kernels.ACTIVE_BACKEND)
        return RunResult(exit_code=2, header=header, records=[diag], elapsed=time.perf_counter() - t0)
    return RunResult(
        exit_code=exit_code_from_records(records),
        header=header,
        records=records,
        context=context,
        elapsed=time.perf_counter() - t0,
    )


def _default_seed(cfg):
    if cfg.get("kind", "stability") == "axioms":
        return cfg.get("samples", {}).get("seed", 0)
    return cfg.get("probes", {}).get("seed", 0)
