"""Envelope calibration reads its scaled degenerate family from the level
table.

``_scaled_family_reference`` keeps the calibration that evaluated the
inequality on that family directly: every scaled tuple in one
concatenated batch, the map called on all of them at once.  Reading the
family from the table must give the same theta bit for bit.
"""

from collections import Counter

import numpy as np
import pytest

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
from modstab.scenarios import CALIBRATION_SAFETY, CALIBRATION_SEED_OFFSET, calibrate_theta
from modstab.verify import inequality_parts

MATRIX2 = preset("matrix2")
NORM = ModularSpec(kind="norm")
EXTRA = 500  # the random family is the same on both sides; keep it small


def rho_rows(rows):
    return eval_modular(NORM, np.atleast_2d(rows))


def _scaled_family_reference(bimap, psi_proto, rho_fn, s, probes, which, n_levels=40,
                             extra_count=EXTRA, safety=CALIBRATION_SAFETY):
    psi1 = psi_proto.with_theta(1.0)
    zeros = np.zeros_like(probes.x)
    ones = np.ones(len(probes.x), dtype=np.complex128)
    families = [(probes.x, probes.y, probes.z, probes.w, probes.lam)]
    extra = draw_probes(bimap.algebra.dim, max(extra_count, 17), probes.radius,
                        probes.seed + CALIBRATION_SEED_OFFSET)
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
    reps = len(blocks)
    families.append((
        np.concatenate([b[0] for b in blocks]),
        np.concatenate([b[1] for b in blocks]),
        np.tile(probes.z, (reps, 1)),
        np.tile(zeros, (reps, 1)),
        np.tile(ones, reps),
    ))
    required = 0.0
    for X, Y, Z, W, lam in families:
        lhs, rhs0 = inequality_parts(bimap, rho_fn, s, X, Y, Z, W, lam, which=which)
        unit = psi1(X, Y) * psi1(Z, W)
        need = lhs - rhs0
        weighted = unit > 1e-15
        assert not np.any(~weighted & (need > 1e-12))
        if np.any(weighted):
            required = max(required, float(np.max(need[weighted] / unit[weighted])))
    return max(required * safety, 1e-12)


def random_map(seed, pert, direction):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
    eps = float(rng.uniform(0.005, 0.02))
    if pert == "bounded_osc":
        g = Perturbation("bounded_osc", eps, boundary_safe=True)
    else:
        g = Perturbation("power_env", eps, p=0.5 if direction == "ascending" else 2.0)
    return BiMap(algebra=MATRIX2, kernel="tensor", tensor=t, perturbation=g)


def proto(direction):
    return PsiEnvelope(theta=1.0, p=0.5 if direction == "ascending" else 2.0, direction=direction)


@pytest.mark.parametrize("radius", [1.0, 1e6])
@pytest.mark.parametrize("seed", [401, 402])
@pytest.mark.parametrize("pert", ["bounded_osc", "power_env"])
@pytest.mark.parametrize("which", ["A", "B"])
@pytest.mark.parametrize("direction", ["ascending", "descending"])
def test_theta_from_the_table_equals_the_concatenated_family(direction, which, pert, seed, radius):
    d = random_map(seed, pert, direction)
    probes = draw_probes(4, 64, radius, seed)
    psi0 = proto(direction)
    got = calibrate_theta(d, psi0, rho_rows, 0.5, probes, which=which, extra_count=EXTRA)
    assert got == _scaled_family_reference(d, psi0, rho_rows, 0.5, probes, which)


class ScaledProbeCounter:
    """Wraps a map and counts, per level i, the batch blocks it is called on
    whose arguments are exactly (2^i x, z) for the probes' x and z."""

    def __init__(self, d, probes, levels):
        self.d = d
        self.algebra = d.algebra
        self.zero_boundary = d.zero_boundary
        self.probes = probes
        self.levels = levels
        self.calls = Counter()

    def __call__(self, x, z):
        n = len(self.probes.x)
        if len(x) % n == 0:
            for b in range(len(x) // n):
                xb, zb = x[b * n:(b + 1) * n], z[b * n:(b + 1) * n]
                if not np.array_equal(zb, self.probes.z):
                    continue
                for i in range(self.levels + 1):
                    if np.array_equal(xb, 2.0**i * self.probes.x):
                        self.calls[i] += 1
        return self.d(x, z)


def test_shared_table_evaluates_each_scaled_level_once():
    # calibration, the iteration and the six uniqueness reruns read one
    # table; the one extra level-0 call is f(x, z) inside the inequality at
    # the scenario probes, which is not a scaled iterate
    probes = draw_probes(4, 64, 1.0, 13)
    cfg = StabilizeConfig(direction="ascending", probes=probes)
    base = random_map(13, "bounded_osc", "ascending")
    d = ScaledProbeCounter(base, probes, cfg.n_max + 1)
    table = LevelTable(d, cfg)
    theta = calibrate_theta(d, proto("ascending"), rho_rows, 0.5, probes, which="A",
                            n_levels=cfg.n_max, extra_count=EXTRA, table=table)
    once = Counter(range(cfg.n_max + 1))
    assert d.calls == once + Counter({0: 1})
    psi = proto("ascending").with_theta(theta)
    out = stabilize(d, psi, rho_rows, cfg, table=table)
    assert out.converged and out.N_converged < cfg.n_max
    assert check_uniqueness(d, psi, rho_rows, cfg, table=table).passed
    assert d.calls == once + Counter({0: 1})


def test_calibration_refuses_a_table_of_other_iterates():
    probes = draw_probes(4, 64, 1.0, 13)
    d = random_map(13, "bounded_osc", "ascending")
    table = LevelTable(d, StabilizeConfig(direction="ascending", probes=probes))
    others = [
        (d, proto("descending"), probes),
        (d, proto("ascending"), draw_probes(4, 64, 1.0, 14)),
        (random_map(13, "bounded_osc", "ascending"), proto("ascending"), probes),
    ]
    for other_d, psi0, other_probes in others:
        with pytest.raises(ConfigError, match="level table"):
            calibrate_theta(other_d, psi0, rho_rows, 0.5, other_probes, extra_count=EXTRA,
                            table=table)
