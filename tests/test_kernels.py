import math

import numpy as np
import pytest

from modstab import BiMap, ConfigError, _kernels, preset


def batches(seed, n=257, d=4):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    b = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    t = rng.normal(size=(d, d, d)) + 1j * rng.normal(size=(d, d, d))
    return a, b, t


@pytest.mark.parametrize("name", ["rho_norm", "rho_power", "rho_orlicz"])
def test_zero_rows_give_exact_zero(name):
    v = np.zeros((5, 4), dtype=np.complex128)
    args = {"rho_norm": (v,), "rho_power": (v, 1.5), "rho_orlicz": (v, "exp_minus_one")}[name]
    assert np.all(getattr(_kernels, name)(*args) == 0.0)


def test_dead_zone_vanishes_inside_unit_ball():
    v = 0.7 * np.ones((3, 4), dtype=np.complex128)
    assert np.all(_kernels.rho_orlicz(v, "dead_zone") == 0.0)


def test_power_of_two_scaling_exact_in_batch_mul():
    # doubling one factor doubles the product bit-for-bit, which the
    # iteration engine relies on for exact kernel cancellation
    a, b, t = batches(4)
    base = _kernels.batch_mul(a, b, t)
    doubled = _kernels.batch_mul(2.0 * a, b, t)
    assert np.array_equal(doubled, 2.0 * base)


def test_one_row_reader_for_vectors_and_batches():
    rows, single = _kernels._rows([1, 2j])
    assert single and rows.shape == (1, 2) and rows.dtype == np.complex128
    f_ordered = np.asfortranarray(np.arange(6.0).reshape(3, 2))
    rows, single = _kernels._rows(f_ordered)
    assert not single and rows.flags.c_contiguous and np.array_equal(rows, f_ordered)
    for bad in (np.float64(1.0), np.ones((2, 2, 2))):
        with pytest.raises(ConfigError, match="a vector or a batch of vectors"):
            _kernels._rows(bad)


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


def _batch_mul_entry_order(a, b, t):
    # one term t[i, j, k] * (a.T[i] * b.T[j]) per nonzero entry, in (i, j, k) order
    at, bt = a.T, b.T
    out = np.zeros((t.shape[2], a.shape[0]), dtype=np.result_type(a, b, t))
    for i, j, k in zip(*np.nonzero(t)):
        out[k] += t[i, j, k] * (at[i] * bt[j])
    return out.T


def _cbits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _mixed_tensor(rng, d, m):
    # +-1 (some with a -0.0 imaginary part), 0 and generic complex entries;
    # with m > 1 most (i, j) pairs carry several k
    generic = rng.normal(size=(d, d, m)) + 1j * rng.normal(size=(d, d, m))
    choices = [1.0, -1.0, complex(1.0, -0.0), complex(-1.0, -0.0), 0.0, 2.0, 1j,
               complex(1.0, 0.5), complex(-1.0, -2.0)]
    pick = rng.integers(0, len(choices) + 3, size=(d, d, m))
    t = generic.copy()
    for c, value in enumerate(choices):
        t[pick == c] = value
    return t


def _signed_inputs(rng, n, d):
    # magnitudes over 40 decades, with exact zeros of both signs in either part
    a = (rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))) * 10.0 ** rng.integers(
        -20, 20, size=(n, d))
    zeros = rng.integers(0, 6, size=(n, d))
    a.real[zeros == 0] = -0.0
    a.imag[zeros == 1] = -0.0
    a.real[zeros == 2] = 0.0
    a[zeros == 3] = complex(-0.0, -0.0)
    return a


@pytest.mark.parametrize("seed", range(12))
def test_batch_mul_matches_the_entry_order_loop_bit_for_bit(seed):
    rng = np.random.default_rng(100 + seed)
    d, m = (1, 2, 3, 4)[seed % 4], (1, 2, 4, 5)[seed // 4 % 4]
    a, b = _signed_inputs(rng, 300, d), _signed_inputs(rng, 300, d)
    t = _mixed_tensor(rng, d, m)
    for left, right in ((a, b), (np.conj(a), b), (a[::-1], np.asfortranarray(b)), (a, a)):
        got = _kernels.batch_mul(left, right, t)
        assert np.array_equal(_cbits(got), _cbits(_batch_mul_entry_order(left, right, t)))
    real = _kernels.batch_mul(a.real, b.real, t.real)
    assert np.array_equal(_cbits(real), _cbits(_batch_mul_entry_order(a.real, b.real, t.real)))


def test_batch_mul_matches_the_entry_order_loop_on_the_algebra_tensors():
    rng = np.random.default_rng(41)
    c = preset("matrix2").structure
    a, b = _signed_inputs(rng, 4096, 4), _signed_inputs(rng, 4096, 4)
    for t in (c, c - c.transpose(1, 0, 2), (0.75 - 1.25j) * c, preset("complex").structure):
        x, z = a[:, : t.shape[0]], b[:, : t.shape[0]]
        got = _kernels.batch_mul(x, z, t)
        assert np.array_equal(_cbits(got), _cbits(_batch_mul_entry_order(x, z, t)))
    commutator = c - c.transpose(1, 0, 2)
    assert np.count_nonzero(commutator) == 12
    assert len({(i, j) for i, j, _ in zip(*np.nonzero(commutator))}) == 10


@pytest.mark.parametrize("form", ["commutator", "product", "conjugate_product"])
def test_a_map_walks_the_product_plan_of_its_tensor(form):
    # the plan is made once per map, with Python coefficients; a call
    # that passes it has the bits of one that derives it
    d = BiMap(algebra=preset("matrix2"), kernel=form, coeff=0.75 - 1.25j)
    t, plan = d.kernel_tensor, d.kernel_plan
    assert plan == _kernels.product_plan(t)
    assert [(i, j, k) for i, j, terms in plan for k, _ in terms] == [
        tuple(e) for e in np.argwhere(t).tolist()]
    assert all(type(c) is complex for _, _, terms in plan for _, c in terms)
    rng = np.random.default_rng(43)
    a, b = _signed_inputs(rng, 300, 4), _signed_inputs(rng, 300, 4)
    assert np.array_equal(_cbits(_kernels.batch_mul(a, b, t, plan)),
                          _cbits(_kernels.batch_mul(a, b, t)))


@pytest.mark.parametrize("seed", range(6))
def test_batch_mul_non_finite_inputs_give_non_finite_rows(seed):
    # +-1 coefficients add the product itself, so where a product part is
    # infinite the other part need not turn NaN as c * p does; the rows that
    # are not finite stay the same, and the finite rows keep their bits
    rng = np.random.default_rng(200 + seed)
    a, b = _signed_inputs(rng, 200, 4), _signed_inputs(rng, 200, 4)
    for v in (a, b):
        rows, cols = rng.integers(0, 200, 15), rng.integers(0, 4, 15)
        v[rows, cols] = rng.choice([complex(np.inf, 0.0), complex(-np.inf, 1.0),
                                    complex(0.0, np.inf), complex(np.inf, -np.inf)], 15)
    t = _mixed_tensor(rng, 4, 3)
    with np.errstate(invalid="ignore", over="ignore"):
        got = _kernels.batch_mul(a, b, t)
        want = _batch_mul_entry_order(a, b, t)
    bad = ~np.isfinite(want).all(axis=1)
    assert bad.any() and not bad.all()
    assert np.array_equal(~np.isfinite(got).all(axis=1), bad)
    assert np.array_equal(_cbits(got[~bad]), _cbits(want[~bad]))


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
    for phi in ("square", "exp_minus_one", "linear", "dead_zone"):
        if name == "rho_power":
            got, t = _kernels.rho_power(v, 1.5), np.abs(v) ** 1.5
        else:
            got = _kernels.rho_orlicz(v, phi)
            t = np.abs(v)
            t = {"square": t * t, "exp_minus_one": np.expm1(t),
                 "linear": t, "dead_zone": np.maximum(t - 1.0, 0.0)}[phi]
        assert np.array_equal(_bits(got), _bits(t.sum(axis=1)))


def test_rho_norm_rescales_only_the_rows_whose_sum_leaves_the_float_range():
    # [1e200, 1] overflows and [1e-200] underflows to 0 when squared; those
    # rows are rescaled by their largest part, without a warning, and every
    # other row of the batch keeps the bits of the plain sum
    v = _wide_rows(16, 9, 3)
    v[1] = [1e200, 1.0, 0.0]
    v[2] = [1e-200, 0.0, 0.0]
    v[3] = [1e308, 1e308j, -1e308]
    v[4] = [complex(-0.0, 1e-170), 0.0, 3e-180]
    v[5] = 0.0
    v[6, 1] = complex(np.inf, 1e200)
    v[7, 2] = complex(1e200, np.nan)
    got = _kernels.rho_norm(v)
    plain = [0, 5, 6, 7, 8]
    with np.errstate(over="ignore"):
        assert np.array_equal(_bits(got[plain]), _bits(_rho_norm_reference(v[plain])))
    for i in (1, 2, 3, 4):
        parts = v[i].view(np.float64).tolist()
        assert got[i] == pytest.approx(math.hypot(*parts), rel=4e-16)
    assert got[2] == 1e-200 and got[1] == 1e200
    assert got[5] == 0.0 and np.isinf(got[6]) and np.isnan(got[7])


def test_rho_norm_overflows_only_where_the_norm_does():
    v = np.array([[1.5e308, 1.5e308], [1.0, 2.0]], dtype=np.complex128)
    with pytest.warns(RuntimeWarning, match="overflow"):
        got = _kernels.rho_norm(v)
    assert np.isinf(got[0]) and got[1] == np.sqrt(5.0)
