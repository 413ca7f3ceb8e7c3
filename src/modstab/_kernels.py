"""Hot numeric kernels: batched structure-constant products and modular sums.

Plain numpy, one implementation each.  ``perfbench/`` times these
functions per row.  ``_rows`` is the one reader of "a vector or an (n, dim)
batch" into complex rows, for the maps, the envelope, the product and the
modulars alike.

``batch_mul`` sums over the nonzero entries of the structure tensor with
elementwise numpy only: ``out[k] += t[i, j, k] * (a.T[i] * b.T[j])``, in
the (i, j, k) order of ``np.nonzero``, walking the tensor's
``product_plan``: its entries grouped by (i, j), with Python coefficients.
A map makes the plan once, at construction, and passes it to every call;
a call without one (``algebra.mul``'s) derives it, which costs about
5 us: 19.4 -> 14.4 us at 32 rows and 61.4 -> 55.6 us at 2048 for the
commutator, bit for bit (median of 60 rounds of 200 calls on a 2-vCPU
x86-64 host, Python 3.11, numpy 2.4.6).  Structure tensors are sparse
(12 of 64 entries for the matrix2 commutator), so this is 4-5x faster
than ``einsum`` at the scenario batch size.  It deliberately avoids
``matmul`` and BLAS: a GEMM form needs an (n, d*d) outer-product buffer
(+17% peak memory), its time varies with the BLAS thread pool, and BLAS
routes a one-row call through gemv, so a row's last bit would depend on
its batch.
Here every row is an independent, fixed-order sum, so its result is the
same in any batch at any position, and doubling an operand doubles the
product bit for bit, which the iteration engine relies on for exact kernel
cancellation.

The entries of one (i, j) pair are adjacent in that order, so the product
``p = a.T[i] * b.T[j]`` is formed once per pair and shared by its k, and a
coefficient of exactly 1 or -1 adds or subtracts p itself.  The
commutator's 12 entries are all +-1 over 10 pairs, so a call makes 22 array
operations instead of 36: 102 -> 68 us at 512 rows and 161 -> 104 us at
2048 rows (median of 60 interleaved rounds on a 2-vCPU x86-64 host, Python
3.11, numpy 2.4.6).  The bits are those of the sum with every entry
multiplied: ``out`` starts at +0.0 and only accumulates, so it never holds
-0.0, and p and 1 * p differ at most in the sign of a zero part, which then
adds nothing.  Only an infinite part of p tells them apart: 1 * p turns the
other part NaN and p leaves it as is, so the same rows are non-finite.

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
325 -> 103 us at 10^4 rows, 24 -> 13 us at 512 rows, bit for bit.  It
runs under raising overflow and underflow flags, and only a batch that
raises one is recomputed, with the rows whose sum left the float range
scaled by their largest part; that costs about 4 us per call at 512 and
2048 rows.
``_row_sum`` and ``_rows`` are private so that ``perfbench``'s tracer, which
wraps public names only, keeps timing the ``rho_*`` kernels as whole spans.

Every kernel here, and every map built on them, computes each row on its
own, so a wide batch can be evaluated in blocks of ``BLOCK_ROWS`` rows
(``row_blocks``) with the same bits, and narrow batches stacked into one
call of at most that many.  The sites that do: calibration's 10^4-tuple
random family, drawn block by block as well (``bimaps.probe_blocks``);
``bimaps.map_pairs``, which stacks the map's (x, z) pairs for each side
of ``verify.inequality_parts`` and for ``check_biadditivity``,
``check_biderivation`` and ``check_superstability``;
``check_psi_law``'s level stack; the linearity stacks of
``verify.check_first_slot_linearity``; the telescoping majorants; the
level table's blocks of levels (``stabilize.LevelTable``); and
``stabilize.bounded_orbit_estimate``'s pass over the pair bounds and its
pruned sweep of each level against the later ones.
A block's temporaries are 2048 rows of at most a few complex columns: 128
KiB at four, glibc's default mmap threshold, so in a fresh process they
come back as fresh pages, as 10^4-row ones do (README, "Row blocks").  The
constant was set by a sweep on a 2-vCPU x86-64 host and is not
configurable: a different value changes speed and memory, never a result.
"""

import numpy as np

from .errors import ConfigError

ACTIVE_BACKEND = "numpy"

# rows per block for wide batches; see row_blocks
BLOCK_ROWS = 2048


def _rows(v):
    """(C-contiguous (n, dim) complex128 rows, whether v was one vector) of
    a vector or an (n, dim) batch: a row's bits then do not depend on the
    caller's memory layout."""
    a = np.asarray(v, dtype=np.complex128)
    if a.ndim not in (1, 2):
        raise ConfigError(f"expected a vector or a batch of vectors, got ndim={a.ndim}")
    return np.ascontiguousarray(a.reshape(1, -1) if a.ndim == 1 else a), a.ndim == 1


def _items_per_block(rows_per_item):
    """How many items of rows_per_item rows fit in BLOCK_ROWS rows; one
    when an item alone is wider."""
    return max(1, BLOCK_ROWS // max(rows_per_item, 1))


def row_blocks(n, rows_per_item=1):
    """Slices of range(n) for blockwise evaluation of n items of
    rows_per_item rows each: every slice spans at most BLOCK_ROWS rows, or
    one item when an item alone is wider."""
    step = _items_per_block(rows_per_item)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def product_plan(t):
    """The nonzero entries of a structure tensor t, in the (i, j, k) order
    of ``np.nonzero``, grouped by (i, j): a tuple of (i, j, ((k, c), ..))
    with Python coefficients c, which ``batch_mul`` walks."""
    nz = np.nonzero(t)
    plan = {}
    for i, j, k, c in zip(*(v.tolist() for v in nz), t[nz].tolist()):
        plan.setdefault((i, j), []).append((k, c))
    return tuple((i, j, tuple(terms)) for (i, j), terms in plan.items())


def batch_mul(a, b, t, plan=None):
    """out[n,k] = sum_ij a[n,i] b[n,j] t[i,j,k], summed in the fixed order
    of t's nonzero entries; returned as the transpose of a (k, n) buffer.
    ``plan`` is ``product_plan(t)``, derived here when not given."""
    at, bt = a.T, b.T
    out = np.zeros((t.shape[2], a.shape[0]), dtype=np.result_type(a, b, t))
    rows = list(out)  # views: rows[k] += adds in place, with no store back into out
    for i, j, terms in product_plan(t) if plan is None else plan:
        p = at[i] * bt[j]  # one product per (i, j), shared by its k
        for k, c in terms:
            if c == 1:
                rows[k] += p
            elif c == -1:
                rows[k] -= p
            else:
                rows[k] += c * p
    return out.T


def _row_sum(a):
    """Sum of each row of a real (n, k) array: its columns added left to
    right onto +0.0, numpy's start value, so that an all -0.0 row sums to
    +0.0 as in numpy; k is at least 1."""
    out = a[:, 0] + 0.0  # a copy of column 0, with -0.0 made +0.0
    for j in range(1, a.shape[1]):
        out += a[:, j]
    return out


def _norm_of_parts(parts):
    """sqrt of the row sums of re^2 + im^2, from a real (n, 2k) view."""
    sq = parts * parts
    return np.sqrt(_row_sum(sq[:, 0::2] + sq[:, 1::2]))


def rho_norm(v):
    """Euclidean norm of each row of an (n, k) batch.

    A finite row whose sum of squares overflows, or underflows to 0 while
    an entry is nonzero, is recomputed as s * |row / s| with s its largest
    |real or imaginary part|, so that its norm is finite and nonzero where
    the true norm is, and overflows, with numpy's warning, only where the
    true norm does; every other row keeps the bits of the plain sum.  The
    floating-point flags tell whether a square or a sum left the float
    range, so a batch in which none did pays no extra pass."""
    parts = np.ascontiguousarray(v, dtype=np.complex128).view(np.float64)
    try:
        with np.errstate(over="raise", under="raise"):
            return _norm_of_parts(parts)
    except FloatingPointError:
        pass
    with np.errstate(over="ignore", under="ignore"):
        out = _norm_of_parts(parts)
        rows = np.flatnonzero(~np.isfinite(out) | (out == 0.0))
        sub = parts[rows]
        scale = np.abs(sub).max(axis=1, initial=0.0)
        fix = np.isfinite(scale) & (scale > 0.0)  # not a zero row, nor one with an inf or NaN
        scaled = _norm_of_parts(sub[fix] / scale[fix, None])
    # under the caller's error state: it overflows only where the norm does
    out[rows[fix]] = scale[fix] * scaled
    return out


def rho_power(v, p):
    return _row_sum(np.abs(v) ** p)


def rho_orlicz(v, phi):
    """sum_i phi(|v_i|) of each row, for the preset named ``phi``."""
    t = np.abs(v)
    if phi == "square":
        return _row_sum(t * t)
    if phi == "exp_minus_one":
        with np.errstate(over="ignore"):
            return _row_sum(np.expm1(t))
    if phi == "linear":
        return _row_sum(t)
    if phi == "dead_zone":
        return _row_sum(np.maximum(t - 1.0, 0.0))
    raise ValueError(f"unknown phi {phi!r}")
