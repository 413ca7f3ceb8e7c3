"""Scenario configs, the builtin catalog, envelope calibration, and the
run pipeline that wires modular / algebra / map / envelope / probes into
stabilize-then-verify and emits report records.

Configs are plain JSON-able dicts (complex numbers as [re, im] pairs;
no code execution).  The envelope amplitude may be given as the string
"calibrate", in which case theta is fixed by brute-force margin
maximization of the scenario's functional inequality over an enlarged
probe family: the scenario probes, a 10^4-tuple random family, and the
scaled degenerate tuples the iteration traverses, read from the run's
level table and stopping at the magnitude cap.  The result is
deterministic for a fixed seed and is echoed into the report.

A stability run goes parse -> stages -> checks.  The parse stage
(``_parse_stability``) reads the whole config into a ``_Run`` and rejects
malformed values, unknown checks and checks that need a missing iteration
section, all before any evaluation.  The run stages then go in order:
calibrate, config echo, psi law, iterate; a failed psi law or a numeric
abort while iterating ends the run.  Last, each configured check is looked
up in the registry ``_CHECKS`` (name -> function of the run returning its
report records).
"""

import contextlib
import copy
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, _kernels
from .algebra import AlgebraSpec, preset
from .bimaps import WEIGHT_KINDS, BiMap, Perturbation, PsiEnvelope, check_psi_law, draw_probes
from .errors import (
    ConfigError,
    ModstabError,
    NonFiniteValueError,
    OverflowAbort,
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
    LevelTable,
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

CALIBRATION_EXTRA_COUNT = 10_000
CALIBRATION_SAFETY = 1.05
CALIBRATION_SEED_OFFSET = 104_729
# the largest probe or axiom sample count a run accepts (--probes, probes.count,
# samples.count); a larger one is a config error before any array is drawn
MAX_SAMPLE_COUNT = 100_000


def _complex_of(value, label):
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"{label} must be a number or an [re, im] pair")


def _sample_count(override, section, default):
    count = int(override if override is not None else section.get("count", default))
    if count > MAX_SAMPLE_COUNT:
        raise ConfigError(f"sample count {count} exceeds the limit of {MAX_SAMPLE_COUNT}")
    return count


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


def _scaled_degenerate_family(table, psi1, rho_fn, which, n_levels):
    """(need, unit) per level i < n_levels on the degenerate tuples the
    iteration traverses, read from the level table T.  Power-of-two scaling
    is exact, so there the right side is 0 and the left side reduces to
    rho(k T[i+1] - k T[i]) (descending A: rho(k T[i] - k T[i+1])).
    Ascending B has a zero left side and yields nothing.  The first level
    past the magnitude cap ends the family, as it ends the iteration."""
    ascending = table.cfg.direction == "ascending"
    if ascending and which == "B":
        return
    x, z = table.cfg.probes.x, table.cfg.probes.z
    zeros = np.zeros_like(x)
    psi_z0 = psi1(z, zeros)
    for i in range(n_levels):
        try:
            lo, hi = table[i], table[i + 1]
        except OverflowAbort:
            return
        if ascending:  # (u, u, z, 0) with u = 2^i x
            k, u = 2.0 ** (i + 2), 2.0**i * x
            yield rho_fn(k * hi - k * lo), psi1(u, u) * psi_z0
        elif which == "A":  # (u, u, z, 0) with u = x / 2^(i+1)
            k, u = 2.0 ** (1 - i), x / 2.0 ** (i + 1)
            yield rho_fn(k * lo - k * hi), psi1(u, u) * psi_z0
        else:  # (u, 0, z, 0) with u = x / 2^i
            k, u = 2.0 ** (2 - i), x / 2.0**i
            yield rho_fn(k * hi - k * lo), psi1(u, zeros) * psi_z0


def calibrate_theta(
    bimap, psi_proto, rho_fn, s, probes, which="A", n_levels=40,
    extra_count=CALIBRATION_EXTRA_COUNT, safety=CALIBRATION_SAFETY, table=None,
):
    """Smallest theta (times a safety factor) for which the inequality
    holds on the enlarged family; raises if a zero-envelope tuple carries a
    genuine defect, since no amplitude can repair that.

    The scaled degenerate family is read from levels 0..n_levels of
    ``table`` (the run's LevelTable, or a fresh one of the map and probes)
    and stops at the magnitude cap."""
    psi1 = psi_proto.with_theta(1.0)
    if table is None:
        table = LevelTable(bimap, StabilizeConfig(direction=psi_proto.direction, probes=probes))
    else:
        table.check(bimap, replace(table.cfg, direction=psi_proto.direction, probes=probes))
    seed = probes.seed + CALIBRATION_SEED_OFFSET
    extra = draw_probes(bimap.algebra.dim, max(extra_count, 17), probes.radius, seed)

    def family():
        for fam in (probes, extra):
            lhs, rhs0 = inequality_parts(
                bimap, rho_fn, s, fam.x, fam.y, fam.z, fam.w, fam.lam, which=which
            )
            yield lhs - rhs0, psi1(fam.x, fam.y) * psi1(fam.z, fam.w)
        yield from _scaled_degenerate_family(table, psi1, rho_fn, which, n_levels)

    required = 0.0
    for need, unit in family():
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
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{source!r} is neither a builtin scenario nor a readable file")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {source!r} is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {source!r} must be a JSON object")
    return cfg


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


@contextlib.contextmanager
def _reading_config():
    """Turn a malformed config value (a missing key, a wrong type, text
    where a number belongs) into ConfigError; package errors pass as they
    are.  Wraps config reading only, never an evaluation."""
    try:
        yield
    except ModstabError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"malformed config: {type(e).__name__}: {e}") from e


@dataclass
class _Scenario:
    name: str

    def record(self, payload, passed, stage="check", advisory=False):
        return ReportRecord(
            scenario=self.name, stage=stage, payload=payload, passed=passed, advisory=advisory
        )


@dataclass
class _Run(_Scenario):
    """A stability run: what the parse stage read from the config, plus
    what the run stages add (the calibrated envelope, the outcome)."""

    algebra: AlgebraSpec
    modular: ModularSpec
    bimap: BiMap
    s: complex
    probes: object
    weight_kind: str
    psi: PsiEnvelope | None
    needs_calibration: bool
    table: LevelTable | None  # its cfg is the iteration's; None without one
    checks: list
    assert_slot2: bool
    outcome: object = None

    def rho_fn(self, rows):
        return eval_modular(self.modular, np.atleast_2d(rows))

    @property
    def target(self):
        """The extracted limit when the run iterated, else the map itself."""
        return self.outcome.D if self.outcome is not None else self.bimap

    @property
    def d_tol(self):
        return 10.0 * self.table.cfg.tol if self.table is not None else IDENTITY_TOL

    def check_records(self, recs):
        """One report record per verify.CheckRecord."""
        return [
            self.record(
                {"check": r.check_name, "probe_id": r.probe_id, "lhs": r.lhs, "rhs": r.rhs,
                 "margin": r.margin, **r.extra},
                r.passed,
                advisory=r.advisory,
            )
            for r in recs
        ]


def _parse_stability(cfg, name, seed_override, probes_override):
    """The parse stage: build the run from the config, and reject unknown
    checks and checks whose iteration section is missing, before any work."""
    with _reading_config():
        algebra = build_algebra(cfg.get("algebra", {}))
        mspec = build_modular(cfg.get("modular", {}))
        bimap = build_bimap(cfg.get("map", {}), algebra)
        s = _complex_of(cfg.get("s", [0.5, 0.0]), "s")
        if abs(s) >= 1.0 or s == 0:
            raise ConfigError(f"s must be nonzero with |s| < 1, got {s}")

        probes_cfg = cfg.get("probes", {})
        seed = int(seed_override if seed_override is not None else probes_cfg.get("seed", 0))
        count = _sample_count(probes_override, probes_cfg, 512)
        probes = draw_probes(algebra.dim, count, float(probes_cfg.get("radius", 1.0)), seed)

        checks = list(cfg.get("checks", []))
        for chk in checks:
            if chk not in _CHECKS:
                raise ConfigError(f"unknown check {chk!r}")

        weight_kind = cfg.get("rho_tilde_weight", "psi_xx_z0")
        if weight_kind not in WEIGHT_KINDS:
            raise ConfigError(f"rho_tilde_weight must be one of {WEIGHT_KINDS}")
        psi, needs_calibration = build_psi(cfg.get("psi"), mspec)

        iter_cfg = cfg.get("iteration")
        table = None
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
            # one table of scaled iterates, read by calibration, the
            # iteration and the uniqueness check
            table = LevelTable(bimap, StabilizeConfig(
                direction=direction,
                probes=probes,
                n_max=int(iter_cfg.get("n_max", 40)),
                tol=float(iter_cfg.get("tol", 1e-10)),
                magnitude_cap=float(iter_cfg.get("magnitude_cap", 1e15)),
            ))
        for chk in checks:
            if chk in _NEEDS_ITERATION and table is None:
                raise ConfigError(f"{chk} requires an iteration section")

        return _Run(
            name, algebra, mspec, bimap, s, probes,
            weight_kind=weight_kind,
            psi=psi, needs_calibration=needs_calibration, table=table,
            checks=checks, assert_slot2=bool(cfg.get("biderivation_assert_slot2", False)),
        )


# -- run stages: calibrate, config echo, psi law, iterate --------------------


def _calibrate(run):
    if run.needs_calibration:
        which = "B" if "inequality_B" in run.checks else "A"
        n_levels = run.table.cfg.n_max if run.table is not None else 40
        theta = calibrate_theta(
            run.bimap, run.psi, run.rho_fn, run.s, run.probes,
            which=which, n_levels=n_levels, table=run.table,
        )
        run.psi = run.psi.with_theta(theta)


def _config_echo(run):
    psi, probes = run.psi, run.probes
    echo = {
        "config_name": run.name,
        "algebra": run.algebra.preset_name or f"dim-{run.algebra.dim}",
        "modular": run.modular.kind,
        "weight": run.weight_kind,
        "s": [run.s.real, run.s.imag],
        "probes": {"count": len(probes.x), "radius": probes.radius, "seed": probes.seed},
    }
    if psi is not None:
        echo.update(theta=psi.theta, L=psi.L, psi_p=psi.p, direction=psi.direction)
    return run.record(echo, True, stage="config")


def _psi_law(run):
    law = check_psi_law(run.psi, run.probes)
    return run.record(
        {"check": "psi_law", "law_margin": law.law_margin, "decay_ok": law.decay_ok,
         "decay_ratio": law.decay_ratio},
        law.passed,
    )


def _iterate(run):
    """Iterate to the limit; a numeric abort leaves ``run.outcome`` None."""
    try:
        run.outcome = out = stabilize(
            run.bimap, run.psi, run.rho_fn, run.table.cfg,
            weight_kind=run.weight_kind, kappa=run.modular.kappa,
            telescoping="telescoping" in run.checks, skip_psi_check=True, table=run.table,
        )
    except (OverflowAbort, NonFiniteValueError) as e:
        payload = {"error": str(e), "level": getattr(e, "level", None),
                   "probe_id": getattr(e, "probe_id", None)}
        return [run.record(payload, False, stage="iterate")]
    records = [
        run.record({"level": lv.level, "sup_rho_delta": lv.sup_rho_delta,
                    "rho_tilde_delta": lv.rho_tilde_delta}, True, stage="iterate")
        for lv in out.levels
    ]
    payload = {"check": "stabilize", "n_converged": out.N_converged, "converged": out.converged,
               "contraction_estimate": out.contraction_estimate, "bound_margin": out.bound_margin}
    return records + [run.record(payload, out.converged)]


# -- checks: each takes the run and returns its records ----------------------


def _inequality_A(run):
    return run.check_records(check_inequality_A(run.bimap, run.rho_fn, run.s, run.psi, run.probes))


def _inequality_B(run):
    return run.check_records(check_inequality_B(run.bimap, run.rho_fn, run.s, run.psi, run.probes))


def _stability_bound(run):
    # d and its limit D on the probes are levels 0 and N of the run's table
    limit = run.table[run.outcome.N_converged]
    return run.check_records(check_stability_bound(
        run.table[0], limit, run.psi, run.rho_fn, run.probes, corollary_theta=run.psi.theta
    ))


def _biadditivity(run):
    rep = check_biadditivity(run.target, run.rho_fn, run.probes, tol=run.d_tol)
    return [
        run.record({"check": f"biadditivity_{slot}", "residual": sup, "witness": wit,
                    "tol": run.d_tol}, sup <= run.d_tol)
        for slot, sup, wit in (("slot1", rep.slot1_sup, rep.slot1_witness),
                               ("slot2", rep.slot2_sup, rep.slot2_witness))
    ]


def _first_slot_linearity(run):
    scalars = default_linearity_scalars(run.probes.seed + 3)
    return run.check_records(
        check_first_slot_linearity(run.target, run.rho_fn, scalars, run.probes, tol=run.d_tol)
    )


def _biderivation(run):
    return run.check_records(check_biderivation(
        run.bimap, run.rho_fn, run.algebra, run.psi, run.probes, assert_slot2=run.assert_slot2
    ))


def _superstability(run):
    rep = check_superstability(run.bimap, run.rho_fn, run.probes)
    records = [run.record({"check": "superstability", "sup_residual": rep.sup_residual},
                          rep.is_superstable)]
    if rep.is_superstable and run.outcome is not None:
        limit = run.table[run.outcome.N_converged]
        gap = float(np.max(run.rho_fn(limit - run.table[0])))
        records.append(run.record({"check": "superstability_certificate", "limit_gap": gap},
                                  gap <= 1e-12))
    return records


def _telescoping(run):
    return [
        run.record({"check": "telescoping", "level": lv.level,
                    "kappa_margin": lv.telescoping_kappa_margin,
                    "final_margin": lv.telescoping_final_margin},
                   lv.telescoping_kappa_margin <= INEQUALITY_TOL
                   and lv.telescoping_final_margin <= INEQUALITY_TOL)
        for lv in run.outcome.levels
    ]


def _bounded_orbit(run):
    est = bounded_orbit_estimate(run.outcome.iterates, run.outcome.weights, run.rho_fn)
    cap = 1.0 / (1.0 - run.psi.L) + 1e-6
    return [run.record({"check": "bounded_orbit", "estimate": est, "cap": cap}, est <= cap)]


def _uniqueness(run):
    rep = check_uniqueness(run.outcome, run.rho_fn, run.table.cfg, run.table)
    return [run.record({"check": "uniqueness", "max_disagreement": rep.max_disagreement,
                        "variants": [list(v) for v in rep.variants]}, rep.passed)]


# The values are these private functions, never the checkers themselves:
# each looks its checker up by module-global name at call time, so a checker
# rebound on this module (a wrapper, a mock) is the one that runs.
_CHECKS = {
    "inequality_A": _inequality_A,
    "inequality_B": _inequality_B,
    "stability_bound": _stability_bound,
    "biadditivity": _biadditivity,
    "first_slot_linearity": _first_slot_linearity,
    "biderivation": _biderivation,
    "superstability": _superstability,
    "telescoping": _telescoping,
    "bounded_orbit": _bounded_orbit,
    "uniqueness": _uniqueness,
}
_NEEDS_ITERATION = frozenset({"stability_bound", "telescoping", "bounded_orbit", "uniqueness"})


def _run_stability(cfg, name, seed_override, probes_override):
    run = _parse_stability(cfg, name, seed_override, probes_override)
    _calibrate(run)
    records = [_config_echo(run)]
    # a failed psi law, or a numeric abort while iterating, ends the run
    if run.psi is not None:
        records.append(_psi_law(run))
    halted = not records[-1].passed
    if not halted and run.table is not None:
        records += _iterate(run)
        halted = run.outcome is None
    if not halted:
        for chk in run.checks:
            records += _CHECKS[chk](run)
    keep = ("algebra", "modular", "bimap", "psi", "probes", "weight_kind", "rho_fn", "s", "outcome")
    return records, {key: getattr(run, key) for key in keep}


def _run_axioms(cfg, name, seed_override, probes_override):
    with _reading_config():
        samples_cfg = cfg.get("samples", {})
        seed = int(seed_override if seed_override is not None else samples_cfg.get("seed", 0))
        count = _sample_count(probes_override, samples_cfg, 10_000)
        radius = float(samples_cfg.get("radius", 1.0))
        dim = int(samples_cfg.get("dim", 4))
        fixtures = [
            (fx.get("label", f"fixture-{idx}"), build_modular(fx["modular"]),
             fx.get("expect_violation"), fx.get("check_delta2", False))
            for idx, fx in enumerate(cfg.get("fixtures", []))
        ]

    run = _Scenario(name)
    samples = {"count": count, "radius": radius, "seed": seed, "dim": dim}
    records = [run.record({"config_name": name, "kind": "axioms", "samples": samples}, True,
                          stage="config")]
    context = {}
    for idx, (label, m, expect, delta2) in enumerate(fixtures):
        report = check_modular_axioms(m, draw_axiom_samples(dim, count, seed + idx, radius))
        context[label] = report
        for axiom, chk in report.checks.items():
            expected_violation = expect == f"axiom_{axiom}"
            records.append(run.record(
                {"check": "modular_axiom", "fixture": label, "axiom": axiom, "margin": chk.margin,
                 "witness": chk.witness, "expected_violation": expected_violation},
                (not chk.passed) if expected_violation else chk.passed,
            ))
        if m.convex:
            remark = check_remark_properties(m, draw_remark_samples(dim, count, seed + 50 + idx, radius))
            records.append(run.record(
                {"check": "remark_properties", "fixture": label,
                 "increasing_margin": remark.increasing.margin,
                 "scalar_margin": remark.scalar_bound.margin if remark.scalar_bound else None,
                 "half_double_margin": remark.half_double.margin if remark.half_double else None},
                remark.passed,
            ))
        if delta2:
            rng = np.random.default_rng(seed + 100 + idx)
            pts = rng.uniform(0.1, 1.0, (256, dim)) + 1j * rng.uniform(0.1, 1.0, (256, dim))
            d2 = check_delta2(m, pts)
            records.append(run.record({"check": "delta2", "fixture": label,
                                       "kappa_hat": d2.kappa_hat}, d2.passed))
    return records, context


def run_scenario(source, seed_override=None, probes_override=None):
    """Execute a scenario given as a builtin name, file path, or dict.

    Returns a RunResult whose exit code is 0 when every asserted record
    passes, 1 when any check fails, and 2 on any package error
    (``ModstabError``) that escapes the stages which report their own:
    configuration errors (malformed values included), unsupported or
    invalid modulars, and numeric aborts (overflow, non-finite values, a
    diverging bracket).
    """
    t0 = time.perf_counter()
    try:
        cfg = load_config(source)
        with _reading_config():
            seed = seed_override if seed_override is not None else _default_seed(cfg)
            header = header_record(cfg, seed=seed, version=__version__, backend=_kernels.ACTIVE_BACKEND)
        runner = _run_axioms if cfg.get("kind", "stability") == "axioms" else _run_stability
        records, context = runner(cfg, cfg.get("name", "unnamed"), seed_override, probes_override)
    except ModstabError as e:
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
