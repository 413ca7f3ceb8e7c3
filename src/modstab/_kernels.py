"""Hot numeric kernels: batched structure-constant products and modular sums.

Plain numpy, one implementation each.  ``perfbench/`` times these
functions per row.

``batch_mul`` sums over the nonzero entries of the structure tensor with
elementwise numpy only: ``out[k] += t[i, j, k] * (a.T[i] * b.T[j])``.
Structure tensors are sparse (12 of 64 entries for the matrix2
commutator), so this is 4-5x faster than ``einsum`` at the scenario
batch size.  It deliberately avoids ``matmul`` and BLAS: a GEMM form
needs an (n, d*d) outer-product buffer (+17% peak memory), its time
varies with the BLAS thread pool, and BLAS routes a one-row call through
gemv, so a row's last bit would depend on its batch.  Here every row is
an independent, fixed-order sum, so its result is the same in any batch
at any position, and doubling an operand doubles the product bit for
bit, which the iteration engine relies on for exact kernel cancellation.
"""

import numpy as np

ACTIVE_BACKEND = "numpy"

# phi preset ids shared with modular.PHI_PRESETS
PHI_SQUARE = 0
PHI_EXP_MINUS_ONE = 1
PHI_LINEAR = 2
PHI_DEAD_ZONE = 3


def batch_mul(a, b, t):
    """out[n,k] = sum_ij a[n,i] b[n,j] t[i,j,k], summed in the fixed order
    of t's nonzero entries; returned as the transpose of a (k, n) buffer."""
    at, bt = a.T, b.T
    out = np.zeros((t.shape[2], a.shape[0]), dtype=np.result_type(a, b, t))
    for i, j, k in zip(*np.nonzero(t)):
        out[k] += t[i, j, k] * (at[i] * bt[j])
    return out.T


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
