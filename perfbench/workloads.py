"""The benchmark's workloads: which scenarios each one cycles through, why
it was chosen, and which layers it exercises and bypasses.

A later performance change names one workload that exercises its mechanism
(the claim workload) and one that bypasses it (the no-change workload).
Shares below are of traced wall time per operation, measured with
``run.py --trace 1`` on a 2-CPU x86-64 host with the numpy backend.
"""

import copy
import json
from dataclasses import dataclass

from modstab.scenarios import builtin_scenarios

# Program seeds are the builtin's own seed plus an offset drawn from this
# pool; offset 0 is the builtin default.  reference.json holds the verdicts
# of every (scenario, offset) pair.
SEED_POOL = 32


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple  # builtin names, or keys of GENERATED
    why: str
    exercises: str
    bypasses: str
    must_hit: tuple  # traced spans that must record calls, beyond MUST_HIT_EVERYWHERE


MUST_HIT_EVERYWHERE = ("cli.main", "scenarios.run_scenario", "report.write_report", "_kernels.batch_mul")

# BENCHMARK.json declares only ascending-commutator and orlicz-luxemburg.
# descending-pair and light-catalog stay runnable by name and in
# ``--workload all``.  They are left out of the gate because their run-to-run
# spread sat at or above the largest allowed regression bound, 0.25, on a
# shared 2-vCPU host.  Each run was 25 s and the spread is the interquartile
# range over ten seeds, as a share of the median, in wall time (before the
# host-speed scaling of speed.py; not measured with it since):
# - descending-pair: 0.13-0.20.  Its 31k-row calibration batches are
#   memory-bound.
# - light-catalog: 0.14-0.27 on run_s.p50.  Its 3-40 ms operations run
#   either fast or about 1.5x slower, switching with co-tenant load within
#   seconds.  A median lands in whichever mode held most of the window; the
#   tail, which sits in the slow mode, stayed within 0.03-0.04.
# The gated pair still covers every layer, and they form the claim and
# no-change pair for product-kernel changes.


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ascending-commutator",
            scenarios=("corollary-ascending-p05",),
            why="the only builtin with uniqueness and bounded_orbit and the ascending "
            "telescoping table; 1024 per-probe check records load the report layer",
            exercises="_kernels.batch_mul (~60% self), calibrate_theta (~50% incl), "
            "check_uniqueness (~20% incl, six stabilize reruns), report",
            bypasses="modular.luxemburg_norm (norm modular has a closed form)",
            must_hit=("stabilize.check_uniqueness", "stabilize.bounded_orbit_estimate",
                      "scenarios.calibrate_theta"),
        ),
        Workload(
            name="descending-pair",
            scenarios=("corollary-descending-p2", "inequality-B-descending"),
            why="calibration over ~31k-row families dominates (~75% incl); both inequality "
            "variants, the kappa-weighted descending table and the power_env perturbation",
            exercises="_kernels.batch_mul, verify.inequality_parts via calibrate_theta",
            bypasses="check_uniqueness and bounded_orbit: a uniqueness-only change "
            "must show on ascending-commutator and not here",
            must_hit=("scenarios.calibrate_theta", "verify.check_inequality_B"),
        ),
        Workload(
            name="orlicz-luxemburg",
            scenarios=("orlicz-luxemburg",),
            why="psi's norm runs the per-row Python bisection of luxemburg_norm, so "
            "modular.* and the rho kernel it calls carry ~80% of the time",
            exercises="modular.luxemburg_norm, modular.eval_modular",
            bypasses="_kernels.batch_mul (~0.1%) and calibration (theta fixed): "
            "the no-change workload for every product-kernel change",
            must_hit=("modular.luxemburg_norm",),
        ),
        Workload(
            name="light-catalog",
            scenarios=("superstability-commutator", "lemma-falsifier", "axioms-suite"),
            why="no calibration and almost no iteration; small batches (64-256 rows, "
            "rho_* at 10k samples) and the planted falsifier (exit 1)",
            exercises="report.write_report (~15% here, <=2% elsewhere), cli, algebra.mul "
            "validation above the kernel",
            bypasses="calibrate_theta, check_uniqueness, luxemburg_norm",
            must_hit=("verify.check_superstability", "modular.check_modular_axioms"),
        ),
    )
}


def orlicz_luxemburg_config():
    """corollary-descending-p2 with an Orlicz modular, theta fixed, 32 probes.

    Descending because ascending Orlicz runs scale probes to |x| ~ 2^39,
    where the bisection's absolute tolerance never closes.  theta is fixed
    because calibrating through the bisected norm takes tens of seconds.
    """
    cfg = copy.deepcopy(builtin_scenarios()["corollary-descending-p2"])
    cfg["name"] = "orlicz-luxemburg"
    cfg["modular"] = {"kind": "orlicz", "phi": "linear", "kappa": 2.0}
    cfg["psi"]["theta"] = 1.0
    cfg["probes"]["count"] = 32
    return cfg


GENERATED = {"orlicz-luxemburg": orlicz_luxemburg_config}


def scenario_config(name):
    if name in GENERATED:
        return GENERATED[name]()
    return builtin_scenarios()[name]


def write_generated(name, directory):
    """Write a generated config as JSON; return the path ``modstab run`` takes."""
    path = directory / f"{name}.json"
    path.write_text(json.dumps(GENERATED[name](), indent=1), encoding="utf-8")
    return str(path)


def own_seed(cfg):
    section = cfg["samples"] if cfg.get("kind") == "axioms" else cfg["probes"]
    return int(section["seed"])


def probe_count(cfg):
    section = cfg["samples"] if cfg.get("kind") == "axioms" else cfg["probes"]
    return int(section["count"])


def seed_offset(bench_seed):
    return int(bench_seed) % SEED_POOL


def seed_args(cfg, offset):
    """``--seed-override`` arguments for a pool offset (none at offset 0)."""
    return [] if offset == 0 else ["--seed-override", str(own_seed(cfg) + offset)]
