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
