import numpy as np
import pytest

from modstab import _kernels


def batches(seed, n=257, d=4):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    b = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    t = rng.normal(size=(d, d, d)) + 1j * rng.normal(size=(d, d, d))
    return a, b, t


@pytest.mark.parametrize("name", ["rho_norm", "rho_power", "rho_orlicz"])
def test_zero_rows_give_exact_zero(name):
    v = np.zeros((5, 4), dtype=np.complex128)
    args = {"rho_norm": (v,), "rho_power": (v, 1.5), "rho_orlicz": (v, 1)}[name]
    assert np.all(getattr(_kernels, name)(*args) == 0.0)


def test_dead_zone_vanishes_inside_unit_ball():
    v = 0.7 * np.ones((3, 4), dtype=np.complex128)
    assert np.all(_kernels.rho_orlicz(v, _kernels.PHI_DEAD_ZONE) == 0.0)


def test_power_of_two_scaling_exact_in_batch_mul():
    # doubling one factor doubles the product bit-for-bit, which the
    # iteration engine relies on for exact kernel cancellation
    a, b, t = batches(4)
    base = _kernels.batch_mul(a, b, t)
    doubled = _kernels.batch_mul(2.0 * a, b, t)
    assert np.array_equal(doubled, 2.0 * base)


def test_default_backend_reported():
    assert _kernels.ACTIVE_BACKEND == "numpy"


@pytest.mark.parametrize("n", [1, 2, 17, 512])
def test_batch_mul_row_independent_of_batch(n):
    # every row is its own fixed-order sum: the same bits in any batch,
    # at any position
    a, b, t = batches(7, n=512)
    full = _kernels.batch_mul(a, b, t)
    for start in sorted({0, (512 - n) // 2, 512 - n}):
        part = _kernels.batch_mul(a[start:start + n], b[start:start + n], t)
        assert np.array_equal(part, full[start:start + n])


def test_batch_mul_matches_einsum_definition():
    rng = np.random.default_rng(8)
    n, d, m = 300, 4, 3
    a = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    b = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    t = rng.normal(size=(d, d, m)) + 1j * rng.normal(size=(d, d, m))
    got = _kernels.batch_mul(a, b, t)
    want = np.einsum("ni,nj,ijk->nk", a, b, t)
    assert got.shape == (n, m)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_batch_mul_zero_tensor_and_empty_batch():
    a, b, _ = batches(9, n=5)
    zero = np.zeros((4, 4, 2), dtype=np.complex128)
    out = _kernels.batch_mul(a, b, zero)
    assert out.shape == (5, 2) and np.all(out == 0.0)
    _, _, t = batches(9)
    empty = np.zeros((0, 4), dtype=np.complex128)
    assert _kernels.batch_mul(empty, empty, t).shape == (0, 4)
