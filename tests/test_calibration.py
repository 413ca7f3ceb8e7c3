"""Envelope calibration reads its scaled degenerate family from the level
table and evaluates a random tuple's right side only where its left side
can raise theta.  ``test_spec`` compares the theta of whole runs with the
plain calibration of ``spec.py``, which evaluates both sides of every
tuple; the cases here pin what a config cannot reach (a random family of
any size, an envelope blind below a threshold) and what the laziness saves.
"""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spec
from modstab import (
    BiMap,
    ConfigError,
    LevelTable,
    ModularSpec,
    Perturbation,
    PsiEnvelope,
    StabilizeConfig,
    check_uniqueness,
    draw_probes,
    eval_modular,
    preset,
    stabilize,
)
from modstab import scenarios
from modstab._kernels import BLOCK_ROWS, rho_norm
from modstab.scenarios import builtin_scenarios, calibrate_theta, run_scenario
from modstab.theorem import THEOREMS
from modstab.verify import inequality_parts
from test_stabilize import CountingMap

MATRIX2 = preset("matrix2")
NORM = ModularSpec(kind="norm")
EXTRA = 500  # the random family is the same on both sides; keep it small


def rho_rows(rows):
    return eval_modular(NORM, np.atleast_2d(rows))


def random_map(seed, pert, direction, eps=None):
    """The commutator or the product on matrix2, by the seed's parity, times
    a random complex coefficient, plus the perturbation ``pert``."""
    rng = np.random.default_rng(seed)
    c = complex(rng.normal(), rng.normal())
    eps = float(rng.uniform(0.005, 0.02)) if eps is None else eps
    if pert == "bounded_osc":
        g = Perturbation("bounded_osc", eps, boundary_safe=True)
    elif pert == "quad_slot1":
        g = Perturbation("quad_slot1", eps)
    else:
        g = Perturbation("power_env", eps, p=0.5 if direction == "ascending" else 2.0)
    return BiMap(algebra=MATRIX2, kernel=("commutator", "product")[seed % 2], coeff=c,
                 perturbation=g)


def proto(direction):
    return PsiEnvelope(theta=1.0, p=0.5 if direction == "ascending" else 2.0, direction=direction)


def table_of(d, probes, direction):
    """The level table a run without an iteration section calibrates on."""
    return LevelTable(d, StabilizeConfig(direction=direction, probes=probes))


def plain_theta(d, psi0, probes, which, extra=EXTRA):
    """The spec's calibration of ``d`` on ``probes``, with ``extra`` random
    tuples, over the 40 levels of a run without an iteration section."""
    tuples = draw_probes(4, extra, probes.radius, probes.seed + scenarios.CALIBRATION_SEED_OFFSET)
    it = spec.Iteration(d, psi0.direction, 40, 1e-10, 1e15, probes.x, probes.z)
    return spec.calibrate(d, psi0, rho_rows, 0.5, which, probes, tuples, it)


@pytest.mark.parametrize("radius", [1.0, 1e6])
@pytest.mark.parametrize("seed", [401, 402])
@pytest.mark.parametrize("pert", ["bounded_osc", "power_env"])
@pytest.mark.parametrize("which", ["A", "B"])
@pytest.mark.parametrize("direction", ["ascending", "descending"])
def test_theta_from_the_table_equals_the_concatenated_family(direction, which, pert, seed, radius):
    # the scaled family read from the table's blocks against the spec's one
    # level pair at a time; radius 1e6 puts the ascending cap at level 30
    d = random_map(seed, pert, direction)
    probes = draw_probes(4, 64, radius, seed)
    got = calibrate_theta(table_of(d, probes, direction), proto(direction), rho_rows, 0.5,
                          THEOREMS[direction, which], extra_count=EXTRA)
    assert got == plain_theta(d, proto(direction), probes, which)


class ScaledProbeCounter:
    """Wraps a map and counts, per level i, the batch blocks it is called on
    whose arguments are exactly (2^i x, z) for the probes' x and z."""

    def __init__(self, d, probes, levels):
        self.d = d
        self.algebra = d.algebra
        self.probes = probes
        self.levels = levels
        self.calls = Counter()
        self.scaled_widths = []  # widths of the calls that hold such a block

    def __call__(self, x, z):
        n = len(self.probes.x)
        if len(x) % n == 0:
            seen = sum(self.calls.values())
            for b in range(len(x) // n):
                xb, zb = x[b * n:(b + 1) * n], z[b * n:(b + 1) * n]
                if not np.array_equal(zb, self.probes.z):
                    continue
                for i in range(self.levels + 1):
                    if np.array_equal(xb, 2.0**i * self.probes.x):
                        self.calls[i] += 1
            if sum(self.calls.values()) > seen:
                self.scaled_widths.append(len(x))
        return self.d(x, z)


def test_shared_table_evaluates_each_scaled_level_once():
    # calibration, the iteration and the uniqueness check read one table;
    # the one extra level-0 block is f(x, z) inside the inequality at the
    # scenario probes, which is not a scaled iterate: it shares one map
    # call with the left side's four terms (5 x 64 rows).  At 64 probes the
    # table's blocks span 32 levels: levels 0..n_max = 40 take two map
    # calls, and no level past n_max is evaluated
    probes = draw_probes(4, 64, 1.0, 13)
    cfg = StabilizeConfig(direction="ascending", probes=probes)
    base = random_map(13, "bounded_osc", "ascending")
    d = ScaledProbeCounter(base, probes, cfg.n_max + 5)
    table = LevelTable(d, cfg)
    theta = calibrate_theta(table, proto("ascending"), rho_rows, 0.5, THEOREMS["ascending", "A"],
                            extra_count=EXTRA)
    once = Counter(range(cfg.n_max + 1))
    blocks = [32 * len(probes), 9 * len(probes)]
    assert d.calls == once + Counter({0: 1})
    assert d.scaled_widths == [5 * len(probes)] + blocks
    psi = proto("ascending").with_theta(theta)
    out = stabilize(table, psi, rho_rows)
    assert out.converged and out.N_converged < cfg.n_max
    assert check_uniqueness(out, rho_rows, table).passed.all()
    assert d.calls == once + Counter({0: 1})
    assert d.scaled_widths == [5 * len(probes)] + blocks


def test_calibration_refuses_a_table_of_other_iterates():
    probes = draw_probes(4, 64, 1.0, 13)
    table = table_of(random_map(13, "bounded_osc", "ascending"), probes, "ascending")
    with pytest.raises(ConfigError, match="level table"):
        calibrate_theta(table, proto("descending"), rho_rows, 0.5, THEOREMS["ascending", "A"],
                        extra_count=EXTRA)


def test_given_probe_parts_are_not_evaluated_again():
    probes = draw_probes(4, 64, 1.0, 404)
    d = random_map(404, "bounded_osc", "ascending")
    parts = inequality_parts(d, rho_rows, 0.5, probes.x, probes.y, probes.z, probes.w,
                             probes.lam, which="A")
    seen = []

    def counted(x, z):
        seen.append(len(x))
        return d(x, z)

    counted.algebra = d.algebra
    theta = calibrate_theta(table_of(counted, probes, "ascending"), proto("ascending"), rho_rows,
                            0.5, THEOREMS["ascending", "A"], extra_count=EXTRA, probe_parts=parts)
    assert theta == calibrate_theta(table_of(d, probes, "ascending"), proto("ascending"),
                                    rho_rows, 0.5, THEOREMS["ascending", "A"], extra_count=EXTRA)
    # the random family's five left-side terms on every row, four to a
    # 2,048-row call, and its three right-side terms on the two rows whose
    # left side can raise theta, in one call; then the table's 41 levels in
    # blocks of 32 levels (2 calls); no probe-family call
    assert seen == [4 * EXTRA, EXTRA, 3 * 2] + [32 * len(probes), 9 * len(probes)]


def blind_below(t):
    """The Euclidean norm, read as 0 at or below t: a tuple whose two
    arguments of one envelope factor both fall there carries no weight."""
    def norm(X):
        n = rho_norm(X)
        return np.where(n > t, n, 0.0)

    return norm


def outcome(fn, *args, **kwargs):
    """fn's value, or the class and message of the error it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as e:
        return type(e), str(e)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    pert=st.sampled_from(["bounded_osc", "power_env", "quad_slot1"]),
    direction=st.sampled_from(["ascending", "descending"]),
    which=st.sampled_from(["A", "B"]),
    extra=st.one_of(st.integers(17, 64), st.integers(BLOCK_ROWS - 2, BLOCK_ROWS + 2)),
    radius=st.sampled_from([1e-3, 1.0, 100.0]),
    eps=st.one_of(st.just(0.0), st.floats(0.001, 0.02)),
    blind=st.sampled_from([None, 0.05, 0.5]),
)
def test_theta_with_the_cut_right_side_equals_full_evaluation(
    seed, pert, direction, which, extra, radius, eps, blind,
):
    # calibration evaluates a random row's right side only where its left
    # side can raise theta; the spec evaluates both sides of every tuple.  A
    # blind envelope gives the random family zero-weight tuples, which with
    # eps > 0 mostly carry a defect and are refused
    d = random_map(seed, pert, direction, eps)
    probes = draw_probes(4, 32, radius, seed)
    psi0 = proto(direction)
    if blind is not None:
        psi0 = PsiEnvelope(theta=1.0, p=psi0.p, direction=direction,
                           norm_fn=blind_below(blind * radius))
    got = outcome(calibrate_theta, table_of(d, probes, direction), psi0, rho_rows, 0.5,
                  THEOREMS[direction, which], extra_count=extra)
    assert got == outcome(plain_theta, d, psi0, probes, which, extra)


def test_calibration_of_the_ascending_builtin_skips_most_right_sides(monkeypatch):
    rows, inside = [], []
    call = BiMap.__call__

    def counted(self, x, z):
        if inside:
            rows.append(len(x))
        return call(self, x, z)

    def calibrate(*args, **kwargs):
        inside.append(True)
        try:
            return calibrate_theta(*args, **kwargs)
        finally:
            inside.clear()

    monkeypatch.setattr(BiMap, "__call__", counted)
    monkeypatch.setattr(scenarios, "calibrate_theta", calibrate)
    assert run_scenario("corollary-ascending-p05").exit_code == 0
    # the table's 41 levels at 512 probes and the five left-side calls on
    # the 10,000 random rows (the probes' sides are evaluated before); the
    # full right side would add 30,000 rows
    assert 41 * 512 + 5 * 10_000 <= sum(rows) <= 72_000


@pytest.mark.parametrize("radius, offset, exit_code, error", [
    # the map overflows only in the right side of random tuples the cut
    # skips, which a full evaluation would report as "not finite at batch
    # row 1310" (exit 2)
    (4.5711922668528444e+76, 3, 1, None),
    # the overflow sits in a kept row, named by its row of the block
    (4.813566285049063e+76, 0, 2, "map evaluation is not finite at batch row 505"),
])
def test_an_overflow_in_a_skipped_right_side_does_not_end_calibration(radius, offset,
                                                                      exit_code, error):
    cfg = builtin_scenarios()["inequality-B-descending"]
    cfg["probes"]["radius"] = radius
    result = run_scenario(cfg, seed_override=cfg["probes"]["seed"] + offset)
    assert result.exit_code == exit_code
    if error is None:
        [echo] = [r.payload for r in result.records if r.stage == "config"]
        assert np.isfinite(echo["theta"])
    else:
        assert [r.payload for r in result.records] == [{"error": error}]


def without_iteration(name):
    """A calibrated builtin with ``iteration: null`` and the four checks that
    need the iteration dropped, so calibration tabulates its own levels."""
    cfg = json.loads(json.dumps(builtin_scenarios()[name]))
    cfg["iteration"] = None
    cfg["checks"] = [c for c in cfg["checks"]
                     if c not in ("stability_bound", "telescoping", "bounded_orbit", "uniqueness")]
    return cfg


@pytest.mark.parametrize("name, failed", [
    ("corollary-descending-p2", {"biadditivity_slot1": 1, "biadditivity_slot2": 1}),
    ("corollary-ascending-p05",
     {"biadditivity_slot1": 1, "biadditivity_slot2": 1, "first_slot_linearity": 26}),
])
def test_calibration_without_an_iteration_section_reads_40_levels(name, failed, monkeypatch):
    tables = []

    class Recorded(LevelTable):
        def __init__(self, d, cfg):
            super().__init__(CountingMap(d, cfg.probes), cfg)
            tables.append(self)

    monkeypatch.setattr(scenarios, "LevelTable", Recorded)
    result = run_scenario(without_iteration(name))
    [table] = tables
    # levels 0..40, each tabulated once: 512 probes give blocks of 4 levels
    assert table.cfg.n_max == 40 and table.d.calls == Counter(range(41))
    assert table.d.widths == [4 * 512] * 10 + [512]
    # with no limit extracted, these checks measure the perturbed map itself
    assert result.exit_code == 1
    assert Counter(r.payload.get("check") for r in result.records
                   if not r.passed and not r.advisory) == failed
