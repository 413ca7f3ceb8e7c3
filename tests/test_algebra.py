import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modstab import (
    ConfigError,
    OutOfDiscError,
    mul,
    preset,
    sample_unit_circle,
    three_unimodular_decomposition,
)
from modstab.algebra import AlgebraSpec, InvalidAlgebraError, complex_uniform

MATRIX2 = preset("matrix2")
COMPLEX = preset("complex")
ZERO = preset("zero_mul", dim=3)


def matrix_unit(i, j):
    """Coefficient vector of E_ij in the matrix2 basis."""
    v = np.zeros(4, dtype=np.complex128)
    v[2 * i + j] = 1.0
    return v


def test_matrix2_units_multiply_like_matrices():
    e11, e12, e21, e22 = (matrix_unit(i, j) for i in range(2) for j in range(2))
    assert np.allclose(mul(e11, e12, MATRIX2), e12)
    assert np.allclose(mul(e12, e21, MATRIX2), e11)
    assert np.allclose(mul(e21, e12, MATRIX2), e22)
    assert np.allclose(mul(e12, e12, MATRIX2), 0.0)


def test_matrix2_matches_dense_matrix_product():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        prod = mul(a, b, MATRIX2)
        dense = a.reshape(2, 2) @ b.reshape(2, 2)
        assert np.allclose(prod.reshape(2, 2), dense, atol=1e-13)


def test_zero_mul_annihilates():
    rng = np.random.default_rng(1)
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    b = rng.normal(size=3)
    assert np.all(mul(a, b, ZERO) == 0.0)


def test_complex_preset_is_scalar_multiplication():
    assert mul(np.array([2.0 + 0j]), np.array([3.0 + 0j]), COMPLEX)[0] == pytest.approx(6.0)


def test_complex_preset_commutative():
    rng = np.random.default_rng(2)
    a = rng.normal(size=1) + 1j * rng.normal(size=1)
    b = rng.normal(size=1) + 1j * rng.normal(size=1)
    assert np.allclose(mul(a, b, COMPLEX), mul(b, a, COMPLEX))


def test_mul_is_bilinear():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, a2, b = (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(3))
        lhs = mul(a + a2, b, MATRIX2)
        rhs = mul(a, b, MATRIX2) + mul(a2, b, MATRIX2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        lhs2 = mul(b, a + a2, MATRIX2)
        rhs2 = mul(b, a, MATRIX2) + mul(b, a2, MATRIX2)
        assert np.max(np.abs(lhs2 - rhs2)) <= 1e-12


def test_mul_batch_matches_single():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(10, 4)) + 1j * rng.normal(size=(10, 4))
    B = rng.normal(size=(10, 4)) + 1j * rng.normal(size=(10, 4))
    batch = mul(A, B, MATRIX2)
    for i in range(10):
        assert np.allclose(batch[i], mul(A[i], B[i], MATRIX2))


def test_mul_dimension_mismatch():
    with pytest.raises(ConfigError):
        mul(np.ones(3), np.ones(3), MATRIX2)


def test_non_associative_structure_rejected():
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 1] = 1.0
    c[1, 0, 0] = 1.0  # e0*e0 = e1, e1*e0 = e0: (e0 e0) e0 = e0 but e0 (e0 e0) = 0
    with pytest.raises(InvalidAlgebraError):
        AlgebraSpec(dim=2, structure=c)


# --- unit circle sampling ---------------------------------------------------


def test_unit_circle_mandatory_corners():
    pts = sample_unit_circle(seed=0, n=4)
    assert np.array_equal(pts, np.array([1, -1, 1j, -1j], dtype=complex))


def test_unit_circle_all_unimodular():
    pts = sample_unit_circle(seed=12, n=64)
    assert np.max(np.abs(np.abs(pts) - 1.0)) <= 1e-15


def test_unit_circle_reproducible():
    a = sample_unit_circle(seed=7, n=8)
    b = sample_unit_circle(seed=7, n=8)
    assert np.array_equal(a, b)
    c = sample_unit_circle(seed=8, n=8)
    assert not np.array_equal(a[4:], c[4:])


def test_unit_circle_needs_four():
    with pytest.raises(ConfigError):
        sample_unit_circle(seed=0, n=3)


# --- complex uniform sampling -------------------------------------------------


@pytest.mark.parametrize(
    "lo, hi, shape",
    [(-0.5**0.5, 0.5**0.5, (10_000, 4)), (-0.5**0.5, 0.5**0.5, (17, 1)), (0.1, 1.0, (256, 4)),
     (-0.0, 0.0, (17, 4))],
)
def test_complex_uniform_has_the_bits_of_the_two_draw_sum(lo, hi, shape):
    # the expression the probe, axiom, remark and delta2 draws used before,
    # kept as the reference; compared as float64 words, so a -0.0 shows too
    for seed in range(50):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = ref_rng.uniform(lo, hi, shape) + 1j * ref_rng.uniform(lo, hi, shape)
        got = complex_uniform(rng, lo, hi, shape)
        assert got.dtype == np.complex128 and got.shape == shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert rng.uniform() == ref_rng.uniform()  # and the same draws were taken


# --- three-unimodular decomposition -----------------------------------------


def test_decompose_boundary_three_is_exact():
    t = three_unimodular_decomposition(3.0)
    assert t.mu1 == 1.0 + 0j and t.mu2 == 1.0 + 0j and t.mu3 == 1.0 + 0j


def test_decompose_zero_gives_cube_roots():
    t = three_unimodular_decomposition(0.0)
    assert t.mu1 == 1.0 + 0j
    assert t.total == pytest.approx(0.0, abs=1e-15)
    assert abs(t.mu2 - np.exp(2j * np.pi / 3)) <= 1e-15
    assert abs(t.mu3 - np.exp(4j * np.pi / 3)) <= 1e-15


def test_decompose_one_splits_residual_conjugately():
    t = three_unimodular_decomposition(1.0)
    assert abs(t.total - 1.0) <= 1e-12
    assert {round(v.imag, 6) for v in (t.mu1, t.mu2)} == {1.0, -1.0}
    assert t.mu3 == 1.0 + 0j


def test_decompose_out_of_disc():
    with pytest.raises(OutOfDiscError):
        three_unimodular_decomposition(3.1)


@pytest.mark.parametrize(
    "w", [complex("nan"), complex(0.0, float("nan")), complex("inf"), complex(1.0, -float("inf"))],
    ids=["nan", "nan-imag", "inf", "inf-imag"],
)
def test_decompose_rejects_non_finite(w):
    # abs(nan) > 3 is False, so the disc test alone would pass a NaN through
    with pytest.raises(OutOfDiscError, match="not finite"):
        three_unimodular_decomposition(w)


def test_decompose_out_of_disc_message_is_short():
    with pytest.raises(OutOfDiscError) as err:
        three_unimodular_decomposition(complex(1e308, 1e308))
    assert str(err.value) == "|w| = 1.41421e+308 exceeds 3"


def test_decompose_deterministic():
    a = three_unimodular_decomposition(0.3 - 1.1j)
    b = three_unimodular_decomposition(0.3 - 1.1j)
    assert (a.mu1, a.mu2, a.mu3) == (b.mu1, b.mu2, b.mu3)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_decompose_disc_property(mag, ang):
    w = mag * np.exp(1j * ang)
    t = three_unimodular_decomposition(w)
    assert abs(t.total - w) <= 1e-12
    for mu in (t.mu1, t.mu2, t.mu3):
        assert abs(abs(mu) - 1.0) <= 1e-12
