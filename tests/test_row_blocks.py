"""Wide batches are evaluated in blocks of ``_kernels.BLOCK_ROWS`` rows.

That is only sound because every kernel, map and norm computes each row on
its own: a batch must have the bits of its blocks concatenated, at any cut.
The bits are compared as integers, so a signed zero counts.
"""

import numpy as np
import pytest

from modstab import (
    BiMap,
    ModularSpec,
    Perturbation,
    PsiEnvelope,
    check_psi_law,
    coeff_norm_fn,
    draw_probes,
    luxemburg_norm,
    preset,
)
from modstab import _kernels
from modstab._kernels import BLOCK_ROWS, row_blocks

MATRIX2 = preset("matrix2")
N = BLOCK_ROWS + 37
CUTS = (1, 7, BLOCK_ROWS, N)  # blocks [0, 1), [1, 7), [7, BLOCK_ROWS), [BLOCK_ROWS, N)


def _same_bits(a, b):
    """Equal shapes and equal float64 words, so that -0.0 differs from 0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(
        a.view(np.float64).view(np.uint64), b.view(np.float64).view(np.uint64)
    )


def _splits(n):
    """The slices of the fixed cuts and those of row_blocks."""
    edges = [0, *CUTS]
    return [[slice(a, b) for a, b in zip(edges, edges[1:])], row_blocks(n)]


def _rows(seed, n=N, dim=4):
    """Random complex rows with some exact zeros, signed zeros and one
    all-zero row, magnitudes over several decades."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-4, 4, size=(n, dim))
    v = (rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))) * scale
    v[3] = 0.0
    v[5, 1] = complex(-0.0, 0.0)
    v[9, 0] = complex(0.0, -0.0)
    v[min(n, BLOCK_ROWS) - 1, 2] = complex(-0.0, -0.0)
    return v


def _blockwise(fn, *arrays):
    """fn on the whole batch, and fn on each split's blocks concatenated."""
    whole = fn(*arrays)
    parts = [np.concatenate([fn(*(a[b] for a in arrays)) for b in blocks])
             for blocks in _splits(len(arrays[0]))]
    return whole, parts


@pytest.mark.parametrize("n, per_item", [(0, 1), (1, 1), (10_000, 1), (2 * BLOCK_ROWS, 1),
                                         (28, 512), (8, 1536), (5, 4000), (31, 32)])
def test_row_blocks_partition_the_items(n, per_item):
    blocks = row_blocks(n, per_item)
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(n))
    for b in blocks:
        assert (b.stop - b.start) * per_item <= BLOCK_ROWS or b.stop - b.start == 1


@pytest.mark.parametrize(
    "pert",
    [None, ("bounded_osc", False), ("bounded_osc", True), ("power_env", False),
     ("quad_slot1", False)],
    ids=["none", "bounded_osc", "bounded_osc-safe", "power_env", "quad_slot1"],
)
@pytest.mark.parametrize("form", ["commutator", "product", "conjugate_product", "tensor"])
def test_map_batch_equals_its_blocks(form, pert):
    rng = np.random.default_rng(3)
    tensor = None
    if form == "tensor":
        tensor = rng.normal(size=(4, 4, 3)) + 1j * rng.normal(size=(4, 4, 3))
    g = None
    if pert is not None:
        name, safe = pert
        g = Perturbation(name, 0.3, p=0.5, boundary_safe=safe)
    d = BiMap(algebra=MATRIX2, kernel=form, tensor=tensor, perturbation=g)
    whole, parts = _blockwise(d, _rows(1), _rows(2))
    for part in parts:
        assert _same_bits(part, whole)


@pytest.mark.parametrize(
    "kernel, arg",
    [("rho_norm", None), ("rho_power", 1.5), ("rho_power", 1.0),
     ("rho_orlicz", _kernels.PHI_SQUARE), ("rho_orlicz", _kernels.PHI_EXP_MINUS_ONE),
     ("rho_orlicz", _kernels.PHI_LINEAR), ("rho_orlicz", _kernels.PHI_DEAD_ZONE)],
)
def test_modular_kernel_batch_equals_its_blocks(kernel, arg):
    fn = getattr(_kernels, kernel)
    v = _rows(4) * 1e-3 if kernel == "rho_orlicz" else _rows(4)
    whole, parts = _blockwise(lambda rows: fn(rows) if arg is None else fn(rows, arg), v)
    for part in parts:
        assert _same_bits(part, whole)


@pytest.mark.parametrize("phi", ["linear", "square", "exp_minus_one"])
def test_luxemburg_norm_batch_equals_its_blocks(phi):
    m = ModularSpec(kind="orlicz", phi=phi)
    whole, parts = _blockwise(lambda rows: luxemburg_norm(m, rows), _rows(5) * 1e-2)
    for part in parts:
        assert _same_bits(part, whole)


@pytest.mark.parametrize("kind", ["norm", "power", "orlicz"])
def test_psi_of_one_argument_twice_takes_its_norms_once(kind):
    m = ModularSpec(kind=kind, p=1.5, phi="linear")
    norm = coeff_norm_fn(m)
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return norm(rows)

    psi = PsiEnvelope(theta=0.7, p=0.5, norm_fn=counted)
    x = _rows(6, n=300)
    same = psi(x, x)
    assert calls == [300]
    assert _same_bits(same, psi(x, x.copy()))
    assert len(calls) == 3


@pytest.mark.parametrize("direction", ["ascending", "descending"])
def test_psi_law_in_blocks_equals_per_level_calls(direction):
    # 31 levels of 300 probes stack to 9,300 rows, so the law runs in blocks
    probes = draw_probes(4, 300, 1.0, seed=8)
    psi = PsiEnvelope(theta=1.0, p=0.5 if direction == "ascending" else 2.0, direction=direction)
    rep = check_psi_law(psi, probes)
    X, Y = probes.x, probes.y
    seq = []
    for n in range(31):
        s = 2.0**n
        seq.append(psi(s * X, s * Y) / s if direction == "ascending" else s * psi(X / s, X / s))
    seq = np.array(seq)
    with np.errstate(divide="ignore", invalid="ignore"):  # the all-zero probe
        ratios = np.where(seq[0] > 0.0, seq[-1] / seq[0], 0.0)
    assert rep[0].payload["decay_ratio"] == float(np.max(ratios) ** (1.0 / 30))
    assert rep.passed.all()
