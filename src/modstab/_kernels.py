"""Hot numeric kernels: batched structure-constant products and modular sums.

Plain numpy, one implementation each.  ``batch_mul`` is exact under
power-of-two scaling of either factor (doubling an operand doubles the
product bit for bit), which the iteration engine relies on for exact
kernel cancellation.  ``perfbench/`` times these functions per row.
"""

import numpy as np

ACTIVE_BACKEND = "numpy"

# phi preset ids shared with modular.PHI_PRESETS
PHI_SQUARE = 0
PHI_EXP_MINUS_ONE = 1
PHI_LINEAR = 2
PHI_DEAD_ZONE = 3


def batch_mul(a, b, t):
    """out[n,k] = sum_ij a[n,i] b[n,j] t[i,j,k]"""
    return np.einsum("ni,nj,ijk->nk", a, b, t)


def rho_norm(v):
    return np.sqrt((v.real * v.real + v.imag * v.imag).sum(axis=1))


def rho_power(v, p):
    return (np.abs(v) ** p).sum(axis=1)


def rho_orlicz(v, phi_id):
    t = np.abs(v)
    if phi_id == PHI_SQUARE:
        return (t * t).sum(axis=1)
    if phi_id == PHI_EXP_MINUS_ONE:
        with np.errstate(over="ignore"):
            return np.expm1(t).sum(axis=1)
    if phi_id == PHI_LINEAR:
        return t.sum(axis=1)
    if phi_id == PHI_DEAD_ZONE:
        return np.maximum(t - 1.0, 0.0).sum(axis=1)
    raise ValueError(f"unknown phi id {phi_id}")
