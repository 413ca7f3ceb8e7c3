"""Wide batches are evaluated in blocks of ``_kernels.BLOCK_ROWS`` rows.

That is only sound because every kernel, map and norm computes each row on
its own: a batch must have the bits of its blocks concatenated, at any cut.
The bits are compared as integers, so a signed zero counts.
"""

import numpy as np
import pytest

import spec
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
from modstab.bimaps import map_pairs, not_finite_at
from modstab.errors import NonFiniteValueError
from modstab.modular import eval_modular
from modstab.verify import inequality_parts

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
@pytest.mark.parametrize(
    "form, c",
    [("commutator", 1.0), ("product", 1.0), ("conjugate_product", 1.0),
     ("product", 0.75 - 1.25j), ("commutator", 0.75 - 1.25j),
     ("conjugate_product", 0.75 - 1.25j)],
    ids=["commutator", "product", "conjugate_product", "product-complex-c",
         "commutator-complex-c", "conjugate_product-complex-c"],
)
def test_map_batch_equals_its_blocks(form, c, pert):
    g = None
    if pert is not None:
        name, safe = pert
        g = Perturbation(name, 0.3, p=0.5, boundary_safe=safe)
    d = BiMap(algebra=MATRIX2, kernel=form, coeff=c, perturbation=g)
    whole, parts = _blockwise(d, _rows(1), _rows(2))
    for part in parts:
        assert _same_bits(part, whole)


@pytest.mark.parametrize(
    "kernel, arg",
    [("rho_norm", None), ("rho_power", 1.5), ("rho_power", 1.0),
     ("rho_orlicz", "square"), ("rho_orlicz", "exp_minus_one"),
     ("rho_orlicz", "linear"), ("rho_orlicz", "dead_zone")],
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
    assert list(rep) == [spec.psi_law(psi, probes.x, probes.y)] and rep.passed.all()


class CallWidths:
    """A map that records the rows of each call, and is not finite at the
    rows whose first argument is ``marker``, as the map is at an overflow."""

    def __init__(self, d, marker=None):
        self.d, self.algebra, self.marker, self.widths = d, d.algebra, marker, []

    def __call__(self, x, z):
        self.widths.append(len(x))
        if self.marker is not None:
            bad = np.flatnonzero((x == self.marker).all(axis=1))
            if bad.size:
                raise not_finite_at(int(bad[0]))
        return self.d(x, z)


PAIRS = 5


def _pairs(n):
    """PAIRS argument pairs of n random rows each."""
    return [(_rows(10 + k, n), _rows(20 + k, n)) for k in range(PAIRS)]


# 409 rows fit five pairs in a call and 410 four; 512 fill a call with four,
# 1,025 leave one to a call, as a pair wider than a call does
@pytest.mark.parametrize("n", [17, 409, 410, 512, 1025, BLOCK_ROWS + 3])
def test_map_pairs_equal_per_pair_calls(n):
    d = BiMap(algebra=MATRIX2, kernel="commutator", coeff=0.75 - 1.25j,
              perturbation=Perturbation("bounded_osc", 0.3, boundary_safe=True))
    pairs, counted = _pairs(n), CallWidths(d)
    got = map_pairs(counted, pairs)
    assert len(got) == PAIRS
    for vals, (x, z) in zip(got, pairs):
        assert _same_bits(vals, d(x, z))
    per_call = _kernels._items_per_block(n)
    assert counted.widths == [n * len(range(k, min(k + per_call, PAIRS)))
                              for k in range(0, PAIRS, per_call)]


@pytest.mark.parametrize("n", [17, 410, 1025])
@pytest.mark.parametrize("k", [0, 3, PAIRS - 1])
def test_a_map_error_in_a_stacked_call_names_the_row_of_its_pair(n, k):
    pairs = _pairs(n)
    r = n // 2
    f = CallWidths(BiMap(algebra=MATRIX2), marker=pairs[k][0][r])
    with pytest.raises(NonFiniteValueError, match=f"at batch row {r}$") as exc:
        map_pairs(f, pairs)
    assert exc.value.probe_id == r
    # on rows taken at ``rows`` of a batch, the error names the batch row
    rows = np.arange(n) * 3 + 1
    with pytest.raises(NonFiniteValueError, match=f"at batch row {rows[r]}$"):
        map_pairs(f, pairs, rows)


@pytest.mark.parametrize("which, term", [("A", 0), ("A", 1), ("B", 2), ("B", 3)])
def test_a_map_error_on_kept_rows_of_a_stacked_side_names_the_batch_row(which, term):
    # the map fails on one kept row of the right side's term ``term``,
    # which shares its map call with the other terms
    probes = draw_probes(4, 64, 1.0, 34)
    x, y, z, w = probes.x, probes.y, probes.z, probes.w
    xp, xm = x + y, x - y
    firsts = {"A": [xp / 2.0, xm / 2.0, y], "B": [xp, xp, xm, xm]}[which]
    kept = np.array([2, 19, 40, 63])
    f = CallWidths(BiMap(algebra=MATRIX2), marker=firsts[term][40])

    def rho(rows):
        return eval_modular(ModularSpec("norm"), rows)

    args = (f, rho, 0.5, x, y, z, w, probes.lam)
    with pytest.raises(NonFiniteValueError, match="at batch row 40$") as exc:
        inequality_parts(*args, which=which, keep=lambda lhs: kept)
    assert exc.value.probe_id == 40
    assert f.widths[-1] == len(firsts) * len(kept)
    with pytest.raises(NonFiniteValueError, match="at batch row 40$"):
        inequality_parts(*args, which=which)
