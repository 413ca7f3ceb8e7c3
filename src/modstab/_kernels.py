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

The modular sums reduce each row with ``_row_sum``, which adds the columns
left to right into a copy of column 0 (from +0.0, as numpy starts).  For
the widths the scenarios use (k <= 7) that is numpy 2.4's own order for
``a.sum(axis=1)``, so the bits are the same, but it streams whole columns
instead of reducing one short row at a time: 29 us against 201 us at
10^4 x 4 (best of 7 on a 2-vCPU x86-64 host, Python 3.11, numpy 2.4.6).  Its order does not depend on the memory layout, whereas numpy's
complex ``sum(axis=1)`` gives different bits for C- and F-ordered (n, 4)
input.  From width 8 on numpy regroups its sum and ``_row_sum`` stays left
to right.  ``rho_norm`` squares the real and imaginary parts through a
float64 view of the rows and adds re^2 + im^2 per entry, as before:
325 -> 103 us at 10^4 rows, 24 -> 13 us at 512 rows, bit for bit.
``_row_sum`` is private so that ``perfbench``'s tracer, which wraps public
names only, keeps timing the ``rho_*`` kernels as whole spans.
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


def _row_sum(a):
    """Sum of each row of a real (n, k) array: its columns added left to
    right onto +0.0, numpy's start value, so that an all -0.0 row sums to
    +0.0 as in numpy (zeros for k = 0)."""
    if a.shape[1] == 0:
        return np.zeros(a.shape[0], dtype=a.dtype)
    out = a[:, 0] + 0.0  # a copy of column 0, with -0.0 made +0.0
    for j in range(1, a.shape[1]):
        out += a[:, j]
    return out


def rho_norm(v):
    """Euclidean norm of each row of an (n, k) batch."""
    sq = np.ascontiguousarray(v, dtype=np.complex128).view(np.float64)
    sq = sq * sq
    return np.sqrt(_row_sum(sq[:, 0::2] + sq[:, 1::2]))


def rho_power(v, p):
    return _row_sum(np.abs(v) ** p)


def rho_orlicz(v, phi_id):
    t = np.abs(v)
    if phi_id == PHI_SQUARE:
        return _row_sum(t * t)
    if phi_id == PHI_EXP_MINUS_ONE:
        with np.errstate(over="ignore"):
            return _row_sum(np.expm1(t))
    if phi_id == PHI_LINEAR:
        return _row_sum(t)
    if phi_id == PHI_DEAD_ZONE:
        return _row_sum(np.maximum(t - 1.0, 0.0))
    raise ValueError(f"unknown phi id {phi_id}")
