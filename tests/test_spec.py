"""Every payload line and the exit code of a stability run equal those of
the plain run of ``spec.py``, bit for bit (differential testing: McKeeman,
"Differential Testing for Software", 1998).  A run that exits 2 raises the
same ``ModstabError`` subclass in both; its message is not compared.

The cases: each stability builtin at its default seed and at 7 and 4242;
every config of ``benchmarks/identity_configs.py`` and every stability
variant of ``benchmarks/failing_configs.py``; the iterated builtins and
``orlicz-luxemburg`` at 17, 700, 2049 and 3000 probes, which move the
edges of the level table's blocks, of the orbit estimate's chunks and of
the probe draw's row blocks; builtins edited to take the paths no builtin
takes (``EDGES``); and a search over small configs.  The search draws
17-128 probes of radius at most 8, which keeps out the map overflow that
the package's calibration skips and the spec's does not (radius 4.57e76,
see ``spec.py``).
"""

import io
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spec
from modstab import builtin_scenarios, config, preset, run_scenario, scenarios
from modstab.errors import ModstabError
from modstab.report import write_report

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
STABILITY = sorted(n for n, c in builtin_scenarios().items() if c.get("kind") != "axioms")
ITERATED = sorted(n for n, c in builtin_scenarios().items() if c.get("iteration"))
GENERATED = {**runpy.run_path(BENCHMARKS / "identity_configs.py")["identity_configs"](),
             **runpy.run_path(BENCHMARKS / "failing_configs.py")["failing_configs"]()}
GENERATED = {n: c for n, c in GENERATED.items() if c.get("kind") != "axioms"}


def package(source, seed=None, count=None):
    """(exit code, payload lines) of ``modstab run``, or the class of the
    package error that made it exit 2."""
    result = run_scenario(source, seed_override=seed, probes_override=count)
    if result.exit_code != 2:
        out = io.StringIO()
        write_report(result.header, result.records, out)
        return result.exit_code, out.getvalue().splitlines(keepends=True)[1:]
    try:
        scenarios._run_stability(config.parse(scenarios.load_config(source), seed=seed,
                                              count=count))
    except ModstabError as e:
        return type(e)
    pytest.fail("the run exited 2, and its stages raised nothing")


def same(source, seed=None, count=None):
    try:
        want = spec.run(source, seed, count)
    except ModstabError as e:
        want = type(e)
    assert package(source, seed, count) == want
    return want


@pytest.mark.parametrize("seed", [None, 7, 4242])
@pytest.mark.parametrize("name", STABILITY)
def test_each_builtin_is_the_plain_run(name, seed):
    assert same(name, seed)[0] == (1 if name == "lemma-falsifier" else 0)


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_each_generated_config_is_the_plain_run(name):
    same(GENERATED[name])


# builtins with sections edited, for the paths no builtin takes
EDGES = {
    # start levels at and past the level cap, a three-level orbit
    "ascending-n-max-2": ("corollary-ascending-p05", {"iteration": {"n_max": 2}}),
    # unconverged at n_max 20 under a 2^22 cap: the rerun capped at 25 stops at 22
    "ascending-cap-2^22": ("corollary-ascending-p05", {"iteration": {
        "n_max": 20, "tol": 1e-30, "magnitude_cap": 2.0**22}}),
    # a rerun whose own cap and start both lie past the magnitude cap: every
    # variant freezes at level 1, the last level within the cap
    "commutator-cap-2": ("superstability-commutator", {"iteration": {
        "n_max": 1, "magnitude_cap": 2.0}, "checks": ["uniqueness"]}),
    # the magnitude cap inside a block of levels, in calibration and the iteration
    "ascending-radius-3-cap-1e6": ("corollary-ascending-p05", {
        "probes": {"radius": 3.0}, "iteration": {"magnitude_cap": 1e6}}),
    # kappa spelled at its one accepted value, in both descending forms
    "descending-kappa-2": ("corollary-descending-p2", {"modular": {"kappa": 2.0}}),
    "B-kappa-2": ("inequality-B-descending", {"modular": {"kappa": 2.0}}),
    # ascending B, calibrated: its theorem has no scaled family, and its
    # telescoping table is ascending A's
    "ascending-B-telescoping": ("corollary-ascending-p05", {
        "checks": ["inequality_B", "telescoping"]}),
    # a perturbation whose values stay finite while the inequality's sums
    # overflow: calibration refuses it
    "ascending-epsilon-1e308": ("corollary-ascending-p05", {"map": {"perturbation": {
        "name": "bounded_osc", "epsilon": 1e308, "boundary_safe": True}}}),
    # an exp_minus_one envelope, calibrated, ascending
    "ascending-exp-minus-one": ("corollary-ascending-p05", {
        "modular": {"kind": "orlicz", "phi": "exp_minus_one"}, "probes": {"count": 32}}),
}


@pytest.mark.parametrize("name", sorted(EDGES))
def test_edge_configs_are_the_plain_run(name):
    builtin, edits = EDGES[name]
    cfg = builtin_scenarios()[builtin]
    for section, values in edits.items():
        if isinstance(values, dict):
            cfg[section].update(values)
        else:
            cfg[section] = values
    same(cfg)


@pytest.mark.parametrize("count", [17, 700, 2049, 3000])
@pytest.mark.parametrize("name", ITERATED + ["orlicz-luxemburg"])
def test_block_edges_are_the_plain_run(name, count):
    same(GENERATED.get(name, name), count=count)


EXPONENTS = {"ascending": [0.25, 0.5, 0.75], "descending": [1.5, 2.0, 3.0]}


@st.composite
def configs(draw):
    """A small stability config: every kernel form and perturbation, presets
    and explicit structure, the norm, power and Orlicz modulars
    (exp_minus_one aside: its envelope bisects every norm it takes, about a
    second a run, so it runs in ``GENERATED`` and ``EDGES`` instead), both
    directions, fixed and calibrated theta, and any checks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    algebra = draw(st.sampled_from(["matrix2", "complex", "zero_mul", "structure"]))
    if algebra == "structure":
        algebra = {"dim": 4, "structure": preset("matrix2").structure.real.ravel().tolist()}
    else:
        algebra = {"preset": algebra,
                   "dim": draw(st.integers(1, 3)) if algebra == "zero_mul" else None}
    direction = draw(st.sampled_from(["ascending", "descending"]))
    form = draw(st.sampled_from(["commutator", "product", "conjugate_product", None]))
    kernel = None if form is None else {"form": form, "c": rng.normal(size=2).tolist()}
    pert = draw(st.sampled_from([None, "bounded_osc", "power_env", "quad_slot1"]))
    if form is None and pert is None:
        pert = "bounded_osc"
    if pert is not None:
        pert = {"name": pert, "epsilon": draw(st.sampled_from([0.001, 0.01, 0.05]))}
        if pert["name"] == "power_env":  # the only perturbation that reads p
            pert["p"] = draw(st.sampled_from(EXPONENTS[direction]))
        pert["boundary_safe"] = draw(st.booleans())
    modular = draw(st.sampled_from(
        [{"kind": "norm"}, {"kind": "power", "p": 1.0}, {"kind": "power", "p": 1.5}]
        + [{"kind": "orlicz", "phi": phi} for phi in ("linear", "square")]))
    iteration = None
    if draw(st.booleans()):
        iteration = {"n_max": draw(st.sampled_from([1, 2, 3, 5, 12, 40])),
                     "tol": draw(st.sampled_from([1e-6, 1e-10, 1e-14, 1e-30])),
                     "magnitude_cap": draw(st.sampled_from([1e15, 1e6]))}
    psi = None
    if iteration is not None or draw(st.integers(0, 4)):
        psi = {"theta": draw(st.sampled_from(["calibrate", "calibrate", 0.001, 0.01, 1.0])),
               "p": draw(st.sampled_from(EXPONENTS[direction])), "direction": direction,
               "L": draw(st.sampled_from([None, None, 0.9, 0.3]))}
    checks = draw(st.lists(st.sampled_from(config.CHECKS), min_size=1, max_size=5, unique=True))
    if iteration is None:
        checks = [c for c in checks if c not in scenarios._NEEDS_ITERATION] or ["inequality_B"]
    return {
        "name": "drawn", "algebra": algebra,
        "modular": modular,
        "map": {"kernel": kernel, "perturbation": pert}, "psi": psi,
        "s": draw(st.sampled_from([0.5, [0.3, -0.4], -0.25, [0.0, 0.9]])),
        "probes": {"count": draw(st.integers(17, 128)),
                   "radius": draw(st.sampled_from([0.25, 1.0, 3.0, 8.0])),
                   "seed": draw(st.integers(0, 2**16))},
        "iteration": iteration, "checks": checks,
        "biderivation_assert_slot2": draw(st.booleans()),
    }


@settings(max_examples=40, deadline=None)
@given(cfg=configs())
def test_small_configs_are_the_plain_run(cfg):
    same(cfg)
