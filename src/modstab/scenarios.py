"""Scenario configs, the builtin catalog, envelope calibration, and the
run pipeline that wires modular / algebra / map / envelope / probes into
stabilize-then-verify and emits report records.

Configs are plain JSON-able dicts (complex numbers as [re, im] pairs;
no code execution), read by ``config.parse`` against the config schema
before any evaluation.  The envelope amplitude may be given as the string
"calibrate", in which case theta is fixed by brute-force margin
maximization of the scenario's functional inequality over an enlarged
probe family: the scenario probes, a 10^4-tuple random family, drawn and
evaluated one row block at a time so that it is never held whole, and the
scaled degenerate tuples the iteration traverses, read from the run's
level table and stopping at the magnitude cap.  The result is
deterministic for a fixed seed and is echoed into the report.

A stability run goes parse -> stages -> checks.  The parse stage
(``_parse_stability``) builds a ``_Run`` from the parsed config and rejects
the errors that span fields, such as a check that needs a missing
iteration section, before any evaluation.  The run stages then go in order:
calibrate, config echo, psi law, iterate; a failed psi law or a numeric
abort while iterating ends the run.  Last, each configured check is looked
up in the registry ``_CHECKS`` (name -> function of the run returning a
list of ``report.CheckResult``).  The psi law and the iteration's
``stabilize`` record are ``CheckResult``s too.

An axioms run (``_run_axioms``) writes, per fixture, the ``CheckResult``s
of ``modular``'s checkers: one ``modular_axiom`` row per axiom, then
``remark_properties`` and ``delta2``.  The axiom a fixture names in
``expect_violation`` gets a row of its own instead, whose lhs is 0 when the
axiom's margin exceeds its tol and 1 otherwise, a NaN margin included,
against 0 with tol 0: it passes iff the violation was caught.  So every
verdict of every run passes by the one rule lhs - rhs <= tol, and the
report writes the results the checkers return.
"""

import contextlib
import copy
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, _kernels
from .algebra import AlgebraSpec, complex_uniform, preset
from .bimaps import (
    DEFECT_FLOOR,
    WEIGHT_FLOOR,
    BiMap,
    Perturbation,
    PsiEnvelope,
    check_psi_law,
    draw_probes,
    probe_blocks,
)
from .config import parse
from .errors import (
    ConfigError,
    ModstabError,
    NonFiniteValueError,
    OverflowAbort,
)
from .modular import (
    AXIOM_NAMES,
    ModularSpec,
    check_delta2,
    check_modular_axioms,
    check_remark_properties,
    coeff_norm_fn,
    draw_axiom_samples,
    draw_remark_samples,
    eval_modular,
)
from .report import CheckResult, Records, ReportRecord, exit_code_from_records, header_record
from .stabilize import (
    LevelTable,
    StabilizeConfig,
    bounded_orbit_estimate,
    check_uniqueness,
    stabilize,
)
from .theorem import THEOREMS, Theorem
from .verify import (
    IDENTITY_TOL,
    _majorant_terms,
    check_biadditivity,
    check_biderivation,
    check_first_slot_linearity,
    check_inequality_A,
    check_inequality_B,
    check_stability_bound,
    check_superstability,
    check_telescoping,
    default_linearity_scalars,
    inequality_parts,
)

CALIBRATION_EXTRA_COUNT = 10_000
CALIBRATION_SAFETY = 1.05
CALIBRATION_SEED_OFFSET = 104_729


def build_algebra(a):
    """The algebra of a parsed ``algebra`` section: a preset, or dim and
    structure constants.  ``structure`` is read only without a preset, and
    ``dim`` only with ``zero_mul`` or ``structure``; any other is refused."""
    if a["preset"] is not None:
        if a["structure"] is not None:
            raise ConfigError(f"algebra.structure is read only without a preset, "
                              f"not with {a['preset']!r}")
        if a["dim"] is not None and a["preset"] != "zero_mul":
            raise ConfigError(f"algebra.dim is read only with zero_mul or structure, "
                              f"not with {a['preset']!r}")
        return preset(a["preset"], dim=a["dim"])
    dim, flat = a["dim"], a["structure"]
    if dim is None or flat is None:
        raise ConfigError("algebra needs a preset name or dim + structure constants")
    if len(flat) != dim**3:
        raise ConfigError(f"structure needs {dim ** 3} entries, got {len(flat)}")
    return AlgebraSpec(dim=dim, structure=np.array(flat).reshape(dim, dim, dim))


def build_bimap(m, algebra):
    """The map of a parsed ``map`` section over ``algebra``."""
    kernel, pert = m["kernel"], m["perturbation"]
    return BiMap(
        algebra=algebra,
        kernel=None if kernel is None else kernel["form"],
        coeff=1.0 + 0.0j if kernel is None else kernel["c"],
        perturbation=None if pert is None else Perturbation(**pert),
    )


def build_psi(p, mspec):
    """Envelope of a parsed ``psi`` section; theta == "calibrate" yields a
    unit-amplitude prototype to be rescaled by the calibration pass."""
    if p is None:
        return None, False
    needs_calibration = p["theta"] == "calibrate"
    psi = PsiEnvelope(
        theta=1.0 if needs_calibration else p["theta"],
        p=p["p"],
        L=p["L"],
        direction=p["direction"],
        norm_fn=coeff_norm_fn(mspec),
    )
    return psi, needs_calibration


def _scaled_degenerate_family(table, psi1, rho_fn, theorem):
    """(need, unit) on the degenerate tuples the iteration traverses, read
    from the level table T: one pair of (k, P) arrays per table block, whose
    row for level i < n_max is the pair (T[i], T[i+1]).  Power-of-two
    scaling is exact, so there the right side is 0 and the left side
    reduces to rho(k_i T[i+1] - k_i T[i]).  Descending A's is
    rho(k_i T[i] - k_i T[i+1]), the same bits: fl(a - b) = -fl(b - a), and
    every modular reads only |.|.  The unit is psi(z, 0) times the
    telescoping majorant's term psi_(i+1) (``verify._majorant_terms``),
    which is psi at the tuple's first two slots: ascending (u, u, z, 0) with
    u = 2^i x, descending A (u, u, z, 0) with u = x / 2^(i+1), B (u, 0, z, 0)
    with u = x / 2^i.  k_i = 2^(a + b i), (a, b) = ``theorem.family``; None
    where the left side is 0 (ascending B), and then the family yields
    nothing.  It ends at level min(n_max, ``table.below_cap``)."""
    cfg = table.cfg
    if theorem.family is None:
        return
    a, b = theorem.family
    x, z = cfg.probes.x, cfg.probes.z
    psi_z0 = psi1(z, np.zeros_like(z))
    last = min(cfg.n_max, table.below_cap)
    if last < 0:
        return
    lo = table[0]
    for j, hi in table.span(1, last):  # j: the upper level of the block's first pair
        los = np.concatenate([lo[None], hi[:-1]])
        k = np.array([2.0 ** (a + b * i) for i in range(j - 1, j - 1 + len(hi))])[:, None, None]
        diff = k * hi - k * los
        need = rho_fn(diff.reshape(len(hi) * len(x), diff.shape[2])).reshape(len(hi), len(x))
        yield need, _majorant_terms(theorem, psi1, x, range(j, j + len(hi))) * psi_z0
        lo = hi[-1]


def calibrate_theta(
    table, psi_proto, rho_fn, s, theorem,
    extra_count=CALIBRATION_EXTRA_COUNT, probe_parts=None,
):
    """Smallest theta (times ``CALIBRATION_SAFETY``) for which the
    inequality of the ``theorem.Theorem`` ``theorem`` holds on the enlarged
    family; raises if a tuple whose envelope is at most
    ``bimaps.WEIGHT_FLOOR`` carries a defect above ``bimaps.DEFECT_FLOOR``,
    since no amplitude can repair that, and likewise if the inequality's
    sums overflow float64: a NaN need, or a largest need / unit whose theta
    is not finite.  Such an overflow raises no numpy warning.

    The map, the probes and the level count n_max are those of ``table``,
    a LevelTable whose direction must be the envelope's and the theorem's.
    ``probe_parts`` are the inequality's (lhs, rhs) on the probes when the
    caller already has them (a run shares them with its inequality check).
    The random family is drawn and evaluated one ``bimaps.probe_blocks``
    block at a time, so at most ``_kernels.BLOCK_ROWS`` of its rows are
    held at once; each block has the bits of the same rows of the whole
    ``draw_probes`` family, a row's value does not depend on its block, and
    neither the max nor the refusal depends on the order, so theta has the
    bits of one wide batch.  The scaled degenerate family is read from
    levels 0..n_max of the table, one (need, unit) pair per table block, and
    stops at the magnitude cap.

    A random block's right side is evaluated only on the rows that can
    raise the max so far or trip the refusal: a weighted row (unit >
    WEIGHT_FLOOR) with fl(lhs / unit) above the max or NaN, and an
    unweighted row with lhs > DEFECT_FLOOR.  Every other row takes rhs = 0,
    which changes neither: rho >= 0 and rounding is monotone, so its
    fl((lhs - rhs) / unit) <= fl(lhs / unit) <= the max, and lhs - rhs <=
    lhs <= DEFECT_FLOOR.  A right side that would overflow to NaN on such a
    row is not seen, as a map error there is not.  The probes' right side,
    shared with the inequality check, is evaluated in full; the scaled
    family has none."""
    bimap, probes = table.d, table.cfg.probes
    if not psi_proto.direction == table.cfg.direction == theorem.direction:
        raise ConfigError(f"the level table was built for {table.cfg.direction} iterates, the "
                          f"envelope scales {psi_proto.direction}, the theorem {theorem.direction}")
    psi1 = psi_proto.with_theta(1.0)
    seed = probes.seed + CALIBRATION_SEED_OFFSET
    extra = probe_blocks(bimap.algebra.dim, max(extra_count, 17), probes.radius, seed)

    def random_block(x, y, z, w, lam):
        unit = None

        def open_rows(lhs):  # unit follows the left side, as in a full evaluation
            nonlocal unit
            unit = psi1(x, y) * psi1(z, w)
            weighted = unit > WEIGHT_FLOOR
            rows = lhs > DEFECT_FLOOR
            rows[weighted] = ~(lhs[weighted] / unit[weighted] <= required)
            return np.flatnonzero(rows)

        lhs, rhs0 = inequality_parts(bimap, rho_fn, s, x, y, z, w, lam, which=theorem.which,
                                     keep=open_rows)
        return lhs - rhs0, unit

    def family():  # consumed one block at a time, so ``required`` is the max before it
        x, y, z, w = probes.x, probes.y, probes.z, probes.w
        lhs, rhs0 = probe_parts or inequality_parts(bimap, rho_fn, s, x, y, z, w, probes.lam,
                                                    which=theorem.which)
        yield lhs - rhs0, psi1(x, y) * psi1(z, w)
        for block in extra:
            yield random_block(*block)
        yield from _scaled_degenerate_family(table, psi1, rho_fn, theorem)

    required = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for need, unit in family():
            weighted = unit > WEIGHT_FLOOR
            if np.any(~weighted & (need > DEFECT_FLOOR)):
                raise ConfigError(
                    "defect does not vanish where the envelope does; no theta can calibrate it"
                )
            # NaN where a need or a ratio is, which Python's max would pass over
            peak = np.max(need[weighted] / unit[weighted], initial=required)
            if np.isnan(need).any() or not peak * CALIBRATION_SAFETY < np.inf:
                raise ConfigError("the inequality's defect overflows float64 on the "
                                  "calibration family; no theta can calibrate it")
            required = float(peak)
    return max(required * CALIBRATION_SAFETY, 1e-12)


# ---------------------------------------------------------------------------
# builtin catalog
# ---------------------------------------------------------------------------


def builtin_scenarios():
    return {
        "corollary-ascending-p05": {
            "name": "corollary-ascending-p05",
            "algebra": {"preset": "matrix2"},
            "modular": {"kind": "norm"},
            "map": {
                "kernel": {"form": "commutator", "c": [1.0, 0.0]},
                "perturbation": {
                    "name": "bounded_osc",
                    "epsilon": 0.01,
                    "boundary_safe": True,
                },
            },
            "psi": {"theta": "calibrate", "p": 0.5, "direction": "ascending"},
            "s": [0.5, 0.0],
            "probes": {"count": 512, "radius": 1.0, "seed": 20107},
            "iteration": {"n_max": 40, "tol": 1e-10},
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
            "modular": {"kind": "norm"},
            "map": {
                "kernel": {"form": "commutator", "c": [1.0, 0.0]},
                "perturbation": {"name": "power_env", "epsilon": 0.01, "p": 2.0},
            },
            "psi": {"theta": "calibrate", "p": 2.0, "direction": "descending"},
            "s": [0.5, 0.0],
            "probes": {"count": 512, "radius": 1.0, "seed": 30211},
            "iteration": {"n_max": 40, "tol": 1e-10},
            "checks": ["inequality_A", "stability_bound", "biadditivity", "telescoping"],
        },
        "inequality-B-descending": {
            "name": "inequality-B-descending",
            "algebra": {"preset": "matrix2"},
            "modular": {"kind": "norm"},
            "map": {
                "kernel": {"form": "commutator", "c": [1.0, 0.0]},
                "perturbation": {"name": "power_env", "epsilon": 0.01, "p": 2.0},
            },
            "psi": {"theta": "calibrate", "p": 2.0, "direction": "descending"},
            "s": [0.5, 0.0],
            "probes": {"count": 512, "radius": 1.0, "seed": 40487},
            "iteration": {"n_max": 40, "tol": 1e-10},
            "checks": ["inequality_B", "stability_bound", "biadditivity", "telescoping"],
        },
        "superstability-commutator": {
            "name": "superstability-commutator",
            "algebra": {"preset": "matrix2"},
            "modular": {"kind": "norm"},
            "map": {"kernel": {"form": "commutator", "c": [1.0, 0.0]}, "perturbation": None},
            "psi": {"theta": 1.0, "p": 0.5, "direction": "ascending"},
            "s": [0.5, 0.0],
            "probes": {"count": 256, "radius": 1.0, "seed": 505},
            "iteration": {"n_max": 40, "tol": 1e-12},
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
            "modular": {"kind": "norm"},
            "map": {
                "kernel": None,
                "perturbation": {"name": "quad_slot1", "epsilon": 1.0},
            },
            "psi": None,
            "s": [0.5, 0.0],
            "probes": {"count": 64, "radius": 1.0, "seed": 60601},
            "iteration": None,
            "checks": ["inequality_A"],
        },
        "axioms-suite": {
            "name": "axioms-suite",
            "kind": "axioms",
            "samples": {"count": 10_000, "radius": 1.0, "seed": 70809, "dim": 4},
            "fixtures": [
                {"label": "norm", "modular": {"kind": "norm"}, "check_delta2": True},
                {
                    "label": "power-p1",
                    "modular": {"kind": "power", "p": 1.0},
                    "check_delta2": True,
                },
                {
                    "label": "orlicz-square",
                    "modular": {"kind": "orlicz", "phi": "square"},
                    "check_delta2": False,
                },
                {
                    "label": "dead-zone-broken",
                    "modular": {"kind": "orlicz", "phi": "dead_zone"},
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
    except OSError:
        raise ConfigError(f"{source!r} is neither a builtin scenario nor a readable file")
    except ValueError as e:  # a JSONDecodeError, or an integer past int's digit limit
        raise ConfigError(f"config {source!r} is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {source!r} must be a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# run pipeline
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """A run's exit code, report header and records.  ``records`` is a
    ``report.Records``: a sequence of one ``ReportRecord`` per report
    line, whose checks are held as ``report.CheckResult`` columns; its
    length is the line count, and a result's rows are built only when
    read."""

    exit_code: int
    header: dict
    records: Records
    context: dict = field(default_factory=dict)
    elapsed: float = 0.0


@contextlib.contextmanager
def _reading_config():
    """Turn a builtin error raised while the config is read or the run is
    built (an integer too large for a float, say) into ConfigError; package
    errors pass as they are.  Wraps config reading only, never an
    evaluation."""
    try:
        yield
    except ModstabError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as e:
        raise ConfigError(f"malformed config: {type(e).__name__}: {e}") from e


@dataclass
class _Run:
    """A stability run: what the parse stage read from the config, plus
    what the run stages add (the calibrated envelope, the outcome)."""

    name: str
    algebra: AlgebraSpec
    modular: ModularSpec
    bimap: BiMap
    s: complex
    probes: object
    theorem: Theorem | None  # the run's theorem; None without an envelope
    psi: PsiEnvelope | None
    needs_calibration: bool
    table: LevelTable | None  # its cfg is the iteration's; None without one
    checks: list
    assert_slot2: bool
    outcome: object = None
    parts: dict = field(default_factory=dict)  # which -> inequality_parts on the probes

    def record(self, payload, passed, stage):
        return ReportRecord(scenario=self.name, stage=stage, payload=payload, passed=passed)

    def rho_fn(self, rows):
        return eval_modular(self.modular, np.atleast_2d(rows))

    def probe_parts(self, which):
        """(lhs, rhs) of inequality ``which`` on the run's probes, evaluated
        once per run: calibration and the inequality check share them."""
        if which not in self.parts:
            p = self.probes
            self.parts[which] = inequality_parts(
                self.bimap, self.rho_fn, self.s, p.x, p.y, p.z, p.w, p.lam, which=which
            )
        return self.parts[which]

    @property
    def target(self):
        """The extracted limit when the run iterated, else the map itself."""
        return self.outcome.D if self.outcome is not None else self.bimap

    @property
    def limit_vals(self):
        """The limit on the probes, level N of the table, when the run
        iterated; else None (the checks evaluate the map itself)."""
        return self.table[self.outcome.N_converged] if self.outcome is not None else None

    @property
    def d_tol(self):
        return self.table.cfg.limit_tol if self.table is not None else IDENTITY_TOL


def _parse_stability(v):
    """The parse stage: build the run from the parsed config ``v``, and
    reject the cross-field errors the schema cannot see (an iteration without
    an envelope, a check whose iteration section is missing), all before any
    evaluation.  The iteration runs in the envelope's direction, and the
    run's theorem is that direction's with inequality B iff the run checks
    it."""
    with _reading_config():
        algebra = build_algebra(v["algebra"])
        mspec = ModularSpec(v["modular"]["kind"], v["modular"]["p"], v["modular"]["phi"])
        bimap = build_bimap(v["map"], algebra)
        p = v["probes"]
        probes = draw_probes(algebra.dim, p["count"], p["radius"], p["seed"])
        psi, needs_calibration = build_psi(v["psi"], mspec)
        which = "B" if "inequality_B" in v["checks"] else "A"
        theorem = None if psi is None else THEOREMS[psi.direction, which]

        it = v["iteration"]
        table = None
        if it is not None:
            if psi is None:
                raise ConfigError("iteration requires an envelope")
            pert, above = bimap.perturbation, theorem.sign < 0
            if pert is not None and pert.name == "power_env" and (
                    pert.p <= 1.0 if above else pert.p >= 1.0):
                raise ConfigError(f"{psi.direction} runs need a power_env exponent "
                                  f"p {'>' if above else '<'} 1")
            # one table of scaled iterates, read by calibration, the
            # iteration and the uniqueness check
            table = LevelTable(bimap, StabilizeConfig(
                direction=psi.direction, probes=probes, n_max=it["n_max"], tol=it["tol"],
                magnitude_cap=it["magnitude_cap"],
            ))
        for chk in v["checks"]:
            if chk in _NEEDS_ITERATION and table is None:
                raise ConfigError(f"{chk} requires an iteration section")

        return _Run(
            v["name"], algebra, mspec, bimap, v["s"], probes,
            theorem=theorem,
            psi=psi, needs_calibration=needs_calibration, table=table,
            checks=v["checks"], assert_slot2=v["biderivation_assert_slot2"],
        )


# -- run stages: calibrate, config echo, psi law, iterate --------------------


def _calibrate(run):
    if run.needs_calibration:
        table = run.table
        if table is None:  # no iteration section: calibrate on a table of its own
            table = LevelTable(run.bimap, StabilizeConfig(direction=run.psi.direction,
                                                          probes=run.probes))
        theta = calibrate_theta(
            table, run.psi, run.rho_fn, run.s, run.theorem,
            probe_parts=run.probe_parts(run.theorem.which),
        )
        run.psi = run.psi.with_theta(theta)


def _config_echo(run):
    psi, probes = run.psi, run.probes
    echo = {
        "config_name": run.name,
        "algebra": run.algebra.preset_name or f"dim-{run.algebra.dim}",
        "modular": run.modular.kind,
        "weight": "psi_xx_z0" if run.theorem is None or run.theorem.y_is_x else "psi_x0_z0",
        "s": [run.s.real, run.s.imag],
        "probes": {"count": len(probes.x), "radius": probes.radius, "seed": probes.seed},
    }
    if psi is not None:
        echo.update(theta=psi.theta, L=psi.L, psi_p=psi.p, direction=psi.direction)
    return run.record(echo, True, "config")


def _iterate(run):
    """Iterate to the limit; a numeric abort leaves ``run.outcome`` None."""
    try:
        run.outcome = out = stabilize(run.table, run.psi, run.rho_fn, theorem=run.theorem)
    except (OverflowAbort, NonFiniteValueError) as e:
        payload = {"error": str(e), "level": getattr(e, "level", None),
                   "probe_id": getattr(e, "probe_id", None)}
        return [run.record(payload, False, "iterate")]
    records = [
        run.record({"level": lv.level, "sup_rho_delta": lv.sup_rho_delta,
                    "rho_tilde_delta": lv.rho_tilde_delta}, True, "iterate")
        for lv in out.levels
    ]
    # delta_N <= tol, the rule that stopped the iteration
    payload = {"n_converged": out.N_converged, "converged": out.converged,
               "bound_margin": out.bound_margin}
    return records + [CheckResult.one("stabilize", out.levels[-1].sup_rho_delta, 0.0,
                                      run.table.cfg.tol, payload)]


# -- checks: each takes the run and returns its list of CheckResults --------


def _inequality_A(run):
    return [check_inequality_A(
        run.bimap, run.rho_fn, run.s, run.psi, run.probes, parts=run.probe_parts("A")
    )]


def _inequality_B(run):
    return [check_inequality_B(
        run.bimap, run.rho_fn, run.s, run.psi, run.probes, parts=run.probe_parts("B")
    )]


def _stability_bound(run):
    # d and its limit D on the probes are levels 0 and N of the run's table
    return [check_stability_bound(run.table[0], run.limit_vals, run.psi, run.rho_fn, run.probes)]


def _biadditivity(run):
    return list(check_biadditivity(run.target, run.rho_fn, run.probes, tol=run.d_tol,
                                   fxz=run.limit_vals))


def _first_slot_linearity(run):
    scalars = default_linearity_scalars(run.probes.seed + 3)
    return [check_first_slot_linearity(run.target, run.rho_fn, scalars, run.probes,
                                       tol=run.d_tol, fxz=run.limit_vals)]


def _biderivation(run):
    return list(check_biderivation(
        run.bimap, run.rho_fn, run.algebra, run.psi, run.probes, assert_slot2=run.assert_slot2
    ))


def _superstability(run):
    rep = check_superstability(run.bimap, run.rho_fn, run.probes)
    results = [rep]
    if rep.passed.all() and run.outcome is not None:
        gap = float(np.max(run.rho_fn(run.limit_vals - run.table[0])))
        results.append(CheckResult.one("superstability_certificate", gap, 0.0, 1e-12,
                                       {"limit_gap": gap}))
    return results


def _telescoping(run):
    return [check_telescoping(run.table, run.psi, run.rho_fn, run.outcome.N_converged,
                              run.theorem)]


def _bounded_orbit(run):
    iterates = [run.table[n] for n in range(run.outcome.N_converged + 1)]
    est = bounded_orbit_estimate(iterates, run.outcome.weights, run.rho_fn)
    cap = 1.0 / (1.0 - run.psi.L) + 1e-6
    # est - cap <= 0 iff est <= cap, in IEEE arithmetic
    return [CheckResult.one("bounded_orbit", est, cap, 0.0, {"estimate": est, "cap": cap})]


def _uniqueness(run):
    return [check_uniqueness(run.outcome, run.rho_fn, run.table)]


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


def _run_stability(v):
    run = _parse_stability(v)
    _calibrate(run)
    records = [_config_echo(run)]
    # a failed psi law, or a numeric abort while iterating, ends the run
    halted = False
    if run.psi is not None:
        law = check_psi_law(run.psi, run.probes)
        records.append(law)
        halted = law.n_failed > 0
    if not halted and run.table is not None:
        records += _iterate(run)
        halted = run.outcome is None
    if not halted:
        for chk in run.checks:
            records += _CHECKS[chk](run)
    keep = ("algebra", "modular", "bimap", "psi", "probes", "theorem", "rho_fn", "s", "outcome")
    return records, {key: getattr(run, key) for key in keep}


def _run_axioms(v):
    name, samples = v["name"], v["samples"]
    count, radius, seed, dim = samples["count"], samples["radius"], samples["seed"], samples["dim"]
    fixtures = []
    for idx, fx in enumerate(v["fixtures"]):
        label = f"fixture-{idx}" if fx["label"] is None else fx["label"]
        m = ModularSpec(fx["modular"]["kind"], fx["modular"]["p"], fx["modular"]["phi"])
        expect = fx["expect_violation"]
        names = [f"axiom_{axiom}" for axiom in AXIOM_NAMES]
        if expect is not None and expect not in names:
            raise ConfigError(
                f"fixture {label!r}: expect_violation must be one of {names}, got {expect!r}"
            )
        fixtures.append((label, m, expect, fx["check_delta2"]))

    records = [ReportRecord(name, "config", {"config_name": name, "kind": "axioms",
                                             "samples": samples}, True)]
    for idx, (label, m, expect, delta2) in enumerate(fixtures):
        results = []
        axioms = check_modular_axioms(m, draw_axiom_samples(dim, count, seed + idx, radius))
        for axiom, result in axioms.items():
            expected = expect == f"axiom_{axiom}"
            if expected:
                # caught iff the axiom's margin exceeds its tol, so a NaN margin
                # (an overflow) is not a caught violation: lhs 0 if caught, else 1
                caught = bool(result.margin[0] > result.tol)
                result = CheckResult(result.check, float(not caught), 0.0, 0.0, result.columns)
            result.columns["expected_violation"] = [expected]
            results.append(result)
        results.append(check_remark_properties(
            m, draw_remark_samples(dim, count, seed + 50 + idx, radius)))
        if delta2:
            rng = np.random.default_rng(seed + 100 + idx)
            results.append(check_delta2(m, complex_uniform(rng, 0.1, 1.0, (256, dim))))
        for result in results:
            result.columns["fixture"] = [label]
        records += results
    return records, {}


def run_scenario(source, seed_override=None, probes_override=None):
    """Execute a scenario given as a builtin name, file path, or dict.

    Returns a RunResult whose exit code is 0 when every asserted record
    passes, 1 when any check fails, and 2 on any package error
    (``ModstabError``) that escapes the stages which report their own:
    configuration errors (malformed values included), invalid modulars,
    and numeric aborts (overflow, non-finite values, a diverging bracket).
    """
    t0 = time.perf_counter()
    try:
        cfg = load_config(source)
        with _reading_config():
            v = parse(cfg, seed=seed_override, count=probes_override)
            seed = v["samples" if v["kind"] == "axioms" else "probes"]["seed"]
            # hashes the config as given, with any value an override left unread
            header = header_record(cfg, seed=seed, version=__version__,
                                   backend=_kernels.ACTIVE_BACKEND)
        runner = _run_axioms if v["kind"] == "axioms" else _run_stability
        records, context = runner(v)
        for r in records:
            if isinstance(r, CheckResult):
                r.scenario = v["name"]
    except ModstabError as e:
        diag = ReportRecord(
            scenario=source if isinstance(source, str) else "config",
            stage="config",
            payload={"error": str(e)},
            passed=False,
        )
        header = header_record({}, seed=None, version=__version__, backend=_kernels.ACTIVE_BACKEND)
        return RunResult(exit_code=2, header=header, records=Records([diag]),
                         elapsed=time.perf_counter() - t0)
    return RunResult(
        exit_code=exit_code_from_records(records),
        header=header,
        records=Records(records),
        context=context,
        elapsed=time.perf_counter() - t0,
    )
