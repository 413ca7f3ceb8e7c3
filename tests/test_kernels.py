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


# --- _row_sum and the row norms built on it ------------------------------------


def _wide_rows(seed, n, k):
    # magnitudes spread over 16 decades, so the summation order shows in the bits
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-8, 8, size=(n, k))
    return (rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))) * scale


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("k", range(1, 8))
def test_row_sum_is_numpy_row_sum_bit_for_bit_up_to_width_7(k):
    v = _wide_rows(k, 1000, k)
    signed_zeros = np.where(np.arange(k) % 2 == 0, 0.0, -0.0)
    v[:3] = [np.zeros(k), -np.zeros(k), signed_zeros]
    for a in (v.real.copy(), np.asfortranarray(v.imag), v.real, v[:, ::-1].imag):
        assert np.array_equal(_bits(_kernels._row_sum(a)), _bits(a.sum(axis=1)))
    zero_rows = np.zeros((0, k))
    assert _kernels._row_sum(zero_rows).shape == (0,)


def test_row_sum_of_no_columns_is_zero():
    assert np.array_equal(_kernels._row_sum(np.zeros((3, 0))), np.zeros(3))


@pytest.mark.parametrize("k", [8, 9])
def test_row_sum_adds_left_to_right_from_width_8(k):
    a = _wide_rows(40 + k, 500, k).real
    a[0] = -0.0
    want = []
    for row in a.tolist():  # Python floats: IEEE doubles, added one by one
        acc = 0.0
        for x in row:
            acc += x
        want.append(acc)
    for layout in (a, np.asfortranarray(a)):
        assert np.array_equal(_bits(_kernels._row_sum(layout)), _bits(want))


def _rho_norm_reference(v):
    return np.sqrt((v.real * v.real + v.imag * v.imag).sum(axis=1))


def test_rho_norm_is_the_euclidean_formula_bit_for_bit():
    a, b, t = batches(12, n=512)
    product = _kernels.batch_mul(a, b, t)  # the transpose of a (k, n) buffer
    assert not product.flags.c_contiguous
    wide = _wide_rows(13, 512, 4)
    for v in (product, wide, np.asfortranarray(wide), wide[:1], wide[::3]):
        assert np.array_equal(_bits(_kernels.rho_norm(v)), _bits(_rho_norm_reference(v)))


def test_rho_norm_keeps_non_finite_rows():
    # the non-finite aborts downstream read inf and NaN off these values
    v = _wide_rows(14, 6, 4)
    v[1, 2] = complex(np.inf, 1.0)
    v[2, 0] = complex(0.0, -np.inf)
    v[3, 3] = complex(np.nan, 0.0)
    v[4, 1] = complex(np.inf, np.nan)
    got = _kernels.rho_norm(v)
    assert np.isinf(got[1]) and np.isinf(got[2])
    assert np.isnan(got[3]) and np.isnan(got[4])
    assert np.array_equal(_bits(got), _bits(_rho_norm_reference(v)))


@pytest.mark.parametrize("name", ["rho_power", "rho_orlicz"])
def test_modular_sums_are_numpy_row_sums_bit_for_bit(name):
    v = _wide_rows(15, 700, 4) * 1e-6
    for phi in (_kernels.PHI_SQUARE, _kernels.PHI_EXP_MINUS_ONE, _kernels.PHI_LINEAR,
                _kernels.PHI_DEAD_ZONE):
        if name == "rho_power":
            got, t = _kernels.rho_power(v, 1.5), np.abs(v) ** 1.5
        else:
            got = _kernels.rho_orlicz(v, phi)
            t = np.abs(v)
            t = {_kernels.PHI_SQUARE: t * t, _kernels.PHI_EXP_MINUS_ONE: np.expm1(t),
                 _kernels.PHI_LINEAR: t, _kernels.PHI_DEAD_ZONE: np.maximum(t - 1.0, 0.0)}[phi]
        assert np.array_equal(_bits(got), _bits(t.sum(axis=1)))
