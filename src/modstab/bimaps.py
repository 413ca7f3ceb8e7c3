"""Two-variable maps d : A x A -> A, their perturbations, probe sets, the
control envelope psi with its scaling law, and the probe-restricted
function-space modular induced by psi.

Perturbations are named closed forms chosen so the scaled limits are
analyzable:

    bounded_osc   g(x,z) = eps * sin(sum Re x_i) * proj(z)
                  bounded in x, linear in z; dies under ascending scaling
    power_env     g(x,z) = eps * |x|^p |z|^p * v
                  p < 1 suits ascending runs, p > 1 descending ones
    quad_slot1    g(x,z) = eps * (sum x_i)^2 * proj(z)
                  quadratic contamination of the first slot; breaks
                  additivity on purpose

An optional boundary-safe factor (1 - e^{-|x|^2})(1 - e^{-|z|^2}) keeps
any perturbation exactly zero on the axes, preserving d(x,0)=d(0,x)=0.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .algebra import AlgebraSpec
from .errors import ConfigError, NonFiniteValueError, PreconditionError
from .report import CheckResult
from .theorem import SIGN, THEOREMS

PERTURBATION_NAMES = ("bounded_osc", "power_env", "quad_slot1")
KERNEL_FORMS = ("commutator", "product", "conjugate_product")
DIRECTIONS = ("ascending", "descending")
PSI_LAW_TOL = 1e-9
# a weight at most WEIGHT_FLOOR counts as zero, and so does a defect at most DEFECT_FLOOR
WEIGHT_FLOOR = 1e-15
DEFECT_FLOOR = 1e-12


@dataclass(frozen=True)
class Perturbation:
    name: str
    epsilon: float
    p: float = 2.0
    boundary_safe: bool = False

    def __post_init__(self):
        if self.name not in PERTURBATION_NAMES:
            raise ConfigError(f"unknown perturbation {self.name!r}")
        if self.name == "power_env" and self.p <= 0:
            raise ConfigError("power_env needs p > 0")


@dataclass(frozen=True)
class BiMap:
    """Evaluatable map d(x, z) = kernel + optional perturbation, A x A -> A.

    The kernel is exactly bilinear: a named closed form over the algebra
    product, held as one structure tensor T, built at construction with
    its ``_kernels.product_plan``, and evaluated as sum_ij x_i z_j T[i,j,:]
    (x conjugated for conjugate_product).  Perturbed maps need not be
    bilinear, but every map vanishes on the axes: each perturbation is zero
    at x = 0 and at z = 0.
    """

    algebra: AlgebraSpec
    kernel: str | None = "commutator"
    coeff: complex = 1.0 + 0.0j
    perturbation: Perturbation | None = None
    kernel_tensor: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)
    kernel_plan: tuple | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kernel is not None and self.kernel not in KERNEL_FORMS:
            raise ConfigError(f"unknown kernel form {self.kernel!r}")
        if self.kernel is None and self.perturbation is None:
            raise ConfigError("map needs a kernel or a perturbation")
        c = self.algebra.structure
        t = None
        if self.kernel == "commutator":
            t = self.coeff * (c - c.transpose(1, 0, 2))
        elif self.kernel is not None:  # product, conjugate_product
            t = self.coeff * c
        object.__setattr__(self, "kernel_tensor", t)
        object.__setattr__(self, "kernel_plan", None if t is None else _kernels.product_plan(t))

    def __call__(self, x, z):
        X, sx = _kernels._rows(x)
        Z, sz = _kernels._rows(z)
        if X.shape[0] != Z.shape[0]:
            raise ConfigError("batch sizes differ")
        if X.shape[1] != self.algebra.dim or Z.shape[1] != self.algebra.dim:
            raise ConfigError("argument dimension does not match the algebra")
        g = self.perturbation
        # an overflowing product or term is reported by the finiteness check
        # below, not by numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kernel_tensor is not None:
                left = np.conj(X) if self.kernel == "conjugate_product" else X
                # batch_mul sums from +0.0, so the product holds no -0.0 and needs no zero-fill
                out = np.ascontiguousarray(
                    _kernels.batch_mul(left, Z, self.kernel_tensor, self.kernel_plan))
            else:
                out = np.zeros(X.shape, dtype=np.complex128)
            if g is not None:
                target = out
                norm = _kernels.rho_norm
                if g.name == "bounded_osc":
                    term = (g.epsilon * np.sin(_kernels._row_sum(X.real)))[:, None] * Z
                elif g.name == "quad_slot1":
                    # numpy's complex row sum, not _row_sum: it groups width-4
                    # rows its own way, and the payloads keep its bits
                    term = (g.epsilon * X.sum(axis=1) ** 2)[:, None] * Z
                else:  # power_env: a real multiple of the first unit vector
                    term = (g.epsilon * (norm(X) ** g.p * norm(Z) ** g.p))[:, None]
                    target = out.real[:, :1]
                if g.boundary_safe:
                    damp = (1.0 - np.exp(-norm(X) ** 2)) * (1.0 - np.exp(-norm(Z) ** 2))
                    term *= damp[:, None]
                target += term
        finite = np.isfinite(out.view(np.float64))
        if not finite.all():
            raise not_finite_at(int(np.argmax(~finite.all(axis=1))))
        return out[0] if (sx and sz) else out


def not_finite_at(row):
    """The error of a map evaluation that is not finite at batch row ``row``."""
    return NonFiniteValueError(f"map evaluation is not finite at batch row {row}", probe_id=row)


def map_pairs(f, pairs, rows=None):
    """f(x, z) for each (x, z) of ``pairs``, whose arrays have one row count
    n, as a list in pair order: from stacked map calls of at most
    ``_kernels.BLOCK_ROWS`` rows, as many pairs per call as fit, or one
    pair per call when a pair alone is wider.  A row's value does not
    depend on its batch, so each is the value of f(x, z) alone.

    A map error names its row of the pair, as a call on the pair alone
    would, or ``rows[that row]`` when the pairs' rows were taken at
    ``rows`` of a batch."""
    n, out = len(pairs[0][0]), []
    for b in _kernels.row_blocks(len(pairs), n):
        xs, zs = zip(*pairs[b])
        try:
            vals = f(xs[0], zs[0]) if len(xs) == 1 else f(np.concatenate(xs), np.concatenate(zs))
        except NonFiniteValueError as e:
            if e.probe_id is None:
                raise
            row = e.probe_id % n
            raise not_finite_at(row if rows is None else int(rows[row])) from None
        out += [vals] if len(xs) == 1 else list(vals.reshape(len(xs), n, vals.shape[1]))
    return out


def _stacked_call(f, factors, X, Z):
    """f(c X, Z) for every factor c of ``factors``, from one map call on the
    stacked scaled rows with Z tiled: a (len(factors), n, dim) stack.
    A row's value does not depend on its batch."""
    factors = np.asarray(factors)
    vals = f((factors[:, None, None] * X).reshape(-1, X.shape[1]), np.tile(Z, (len(factors), 1)))
    return vals.reshape(len(factors), X.shape[0], vals.shape[1])


def _scaled_levels(f, sign, levels, X, Z):
    """The scaled maps J^n f on the rows (X, Z) for each n of ``levels``, a
    (len(levels), n, dim) stack: f(s X, Z) times the exact reciprocal
    1/s, s = 2^(sign n) (``theorem.SIGN``: 2^-n f(2^n x, z) ascending and
    2^n f(x / 2^n, z) descending), from one ``_stacked_call``."""
    inverse = np.array([2.0 ** (-sign * n) for n in levels])[:, None, None]
    return _stacked_call(f, [2.0 ** (sign * n) for n in levels], X, Z) * inverse


# ---------------------------------------------------------------------------
# control envelope
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsiEnvelope:
    """psi(x, y) = sqrt(theta) (|x|^p + |y|^p) with a declared contraction
    constant L in (0,1) and a scaling direction.

    Ascending runs require psi(2x,2x) <= 2L psi(x,x); descending runs
    require psi(x,x) <= (L/2) psi(2x,2x).  For the power form the sharp
    constants are L = 2^(p-1) (ascending, p < 1) and L = 2^(1-p)
    (descending, p > 1), L = 2^(sign (p-1)) with ``theorem.SIGN``; omitted
    L defaults to the sharp one for the declared direction.

    ``norm_fn`` computes the row-wise norm on coefficient vectors; the
    scenario layer wires in the Luxemburg norm of the configured modular
    (Euclidean by default).
    """

    theta: float = 1.0
    p: float = 0.5
    L: float | None = None
    direction: str = "ascending"
    norm_fn: object = None

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"direction must be one of {DIRECTIONS}")
        if self.theta < 0:
            raise ConfigError("theta must be nonnegative")
        if self.p < 0:
            raise ConfigError("p must be nonnegative")
        if self.L is None:
            object.__setattr__(self, "L", 2.0 ** (SIGN[self.direction] * (self.p - 1.0)))
        if not (0.0 < self.L < 1.0):
            raise ConfigError(
                f"L = {self.L} is outside (0, 1); the scaling law has no contraction there"
            )
        if self.norm_fn is None:
            object.__setattr__(self, "norm_fn", _kernels.rho_norm)

    def __call__(self, x, y):
        """psi row by row; psi(x, x) with one array object takes its norms once."""
        X, sx = _kernels._rows(x)
        nx = self.norm_fn(X) ** self.p
        ny = nx if y is x else self.norm_fn(_kernels._rows(y)[0]) ** self.p
        out = np.sqrt(self.theta) * (nx + ny)
        return float(out[0]) if sx else out

    def with_theta(self, theta):
        return PsiEnvelope(
            theta=float(theta),
            p=self.p,
            L=self.L,
            direction=self.direction,
            norm_fn=self.norm_fn,
        )


def check_psi_law(psi, probes):
    """Scaling inequality on every probe plus an empirical vanishing test.

    The scaled sequence (psi(2^n x, 2^n y)/2^n ascending, 2^n psi(x/2^n,
    x/2^n) descending) over levels n = 0..30 must decrease monotonically
    while it sits above a noise floor of 1e-9 times its start value; values
    below the floor count as converged to zero.  psi evaluates the levels on
    the stacked scaled probes, in blocks of at most ``_kernels.BLOCK_ROWS``
    rows, row by row, as per-level calls would.  An overflow gives an
    infinite or NaN value, which fails the row, not a numpy warning.

    One row: its lhs is the probe-max scaling-law margin, or +inf when the
    vanishing test fails, against 0 and ``PSI_LAW_TOL``; its payload is
    ``law_margin``, ``decay_ok`` and ``decay_ratio``.
    """
    sign, n_levels = SIGN[psi.direction], 30
    X, Y = probes.x, probes.y
    n, dim = X.shape
    s = 2.0 ** (sign * np.arange(n_levels + 1))[:, None]
    seq = np.empty((s.size, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for b in _kernels.row_blocks(s.size, n):
            sx = (s[b, :, None] * X).reshape(-1, dim)
            sy = sx if sign < 0 else (s[b, :, None] * Y).reshape(-1, dim)
            seq[b] = psi(sx, sy).reshape(seq[b].shape) / s[b]
        X2 = 2.0 * X
        at_x, at_2x = psi(X, X), psi(X2, X2)
        lhs, rhs = (at_x, at_2x) if sign < 0 else (at_2x, at_x)
        margins = lhs - (2.0**sign * psi.L) * rhs
    law_margin = float(margins[int(np.argmax(margins))])

    start = seq[0]
    floor = 1e-9 * start
    live = seq[:-1] > floor[None, :]
    monotone = np.all((seq[1:] <= seq[:-1] * (1.0 + 1e-12)) | ~live)
    shrunk = (start == 0.0) | (seq[-1] < start) | (seq[-1] <= floor)
    decay_ok = bool(monotone and np.all(shrunk))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(start > 0.0, seq[-1] / start, 0.0)
    decay_ratio = float(np.max(ratios) ** (1.0 / n_levels)) if np.any(start > 0) else 0.0
    payload = {"law_margin": law_margin, "decay_ok": decay_ok, "decay_ratio": decay_ratio}
    return CheckResult.one("psi_law", law_margin if decay_ok else np.inf, 0.0, PSI_LAW_TOL, payload)


# ---------------------------------------------------------------------------
# probe sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeSet:
    """Seeded tuples (x, y, z, w, lambda) standing in for the universal
    quantifier at desk scale.

    The leading rows are mandatory degenerate tuples derived from the
    first random draws: y = x with w = 0 (the substitution that seeds the
    ascending defect bound), y = w = 0 (its descending twin), the halved
    pattern x/2, and an all-zero tuple.  All have lambda = 1.  The random
    block's lambda values start with the corner scalars {1, -1, i, -i}.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    w: np.ndarray
    lam: np.ndarray
    seed: int
    radius: float

    def __post_init__(self):
        for name in ("x", "y", "z", "w"):
            a = getattr(self, name)
            if not np.isfinite(a).all():
                raise ConfigError(f"probe field {name} contains non-finite entries")

    def __len__(self):
        return self.x.shape[0]


N_MANDATORY = 13
# the first lambda drawn from the unit-circle stream: rows 13-16 are the corners
_FIRST_CIRCLE_ROW = N_MANDATORY + 4


def _stream_reader(seed):
    """read(start, lo, hi, shape): the uniform doubles on [lo, hi) at
    positions start, start + 1, .. of the stream of ``default_rng(seed)``,
    for starts in increasing order.  The generator jumps ahead with
    ``advance`` only where a stretch does not follow the one before."""
    rng, at = np.random.default_rng(seed), 0

    def read(start, lo, hi, shape):
        nonlocal at
        if start != at:
            rng.bit_generator.advance(start - at)
        out = rng.uniform(lo, hi, shape)
        at = start + out.size
        return out

    return read


def probe_blocks(dim, count=512, radius=1.0, seed=0):
    """The tuples (x, y, z, w, lam) of ``draw_probes`` in consecutive
    blocks of ``_kernels.row_blocks(count)`` rows.

    The draw is eight uniform streams of count x dim doubles from
    ``default_rng(seed)``, one after another: the real parts of x, then its
    imaginary parts, then y, z and w likewise, as ``complex_uniform`` draws
    them; lambda past the corner scalars reads the stream of
    ``default_rng(seed + 1)`` as ``sample_unit_circle`` does.  Each block
    reads its own stretch of every stream by position, so its rows have the
    bits of the same rows of the whole draw.  A block spanning all rows
    reads the streams end to end, without a jump.  The mandatory tuples
    are rows 0-12, built from rows 13-16 of the first block."""
    if count < 17:
        raise ConfigError("need at least 17 probes to fit the mandatory tuples")
    half = radius / np.sqrt(2.0)
    for b in _kernels.row_blocks(count):
        rows = b.stop - b.start
        read = _stream_reader(seed)
        fields = []
        for j in range(4):  # x, y, z, w
            v = np.empty((rows, dim), dtype=np.complex128)
            v.real = read((2 * j) * count * dim + b.start * dim, -half, half, (rows, dim))
            v.imag = read((2 * j + 1) * count * dim + b.start * dim, -half, half, (rows, dim))
            fields.append(v)
        x, y, z, w = fields
        lam = np.ones(rows, dtype=np.complex128)
        first = max(b.start, _FIRST_CIRCLE_ROW)
        if b.stop > first:
            theta = _stream_reader(seed + 1)(first - _FIRST_CIRCLE_ROW, 0.0, 2.0 * np.pi,
                                             b.stop - first)
            lam[first - b.start:] = np.cos(theta) + 1j * np.sin(theta)
        if b.start == 0:
            lam[N_MANDATORY:_FIRST_CIRCLE_ROW] = [1.0, -1.0, 1j, -1j]
            base = slice(N_MANDATORY, _FIRST_CIRCLE_ROW)
            bx, bz = x[base].copy(), z[base].copy()
            zero = np.zeros(dim, dtype=np.complex128)

            # rows 0-3: y = x, w = 0;  rows 4-7: y = w = 0;  rows 8-11: halved pair
            x[0:4], y[0:4], z[0:4], w[0:4] = bx, bx, bz, zero
            x[4:8], y[4:8], z[4:8], w[4:8] = bx, zero, bz, zero
            x[8:12], y[8:12], z[8:12], w[8:12] = bx / 2.0, bx / 2.0, bz, zero
            x[12], y[12], z[12], w[12] = zero, zero, zero, zero
        yield x, y, z, w, lam


def draw_probes(dim, count=512, radius=1.0, seed=0):
    """The ProbeSet of ``probe_blocks(dim, count, radius, seed)``, its
    blocks concatenated."""
    blocks = list(probe_blocks(dim, count, radius, seed))
    x, y, z, w, lam = blocks[0] if len(blocks) == 1 else map(np.concatenate, zip(*blocks))
    return ProbeSet(x=x, y=y, z=z, w=w, lam=lam, seed=seed, radius=radius)


# ---------------------------------------------------------------------------
# probe-restricted function-space modular
# ---------------------------------------------------------------------------

def tilde_weights(psi, theorem, X, Z):
    """Rho-tilde's pointwise weight w(x, z) under the substitution of
    ``theorem``: psi(x, x) psi(z, 0) for y = x, psi(x, 0) psi(z, 0) for y = 0."""
    first = psi(X, X) if theorem.y_is_x else psi(X, np.zeros_like(X))
    return first * psi(Z, np.zeros_like(Z))


def rho_tilde_tabulated(rho_vals, weights):
    """max rho(delta)/w over the probes with weight above ``WEIGHT_FLOOR``;
    +inf when a probe at or below it carries a defect above
    ``DEFECT_FLOOR`` (empty infimum).

    ``rho_vals`` is one (P,) vector, giving a float, or a (k, P) batch of
    them, giving a (k,) array whose rows are the floats of the vectors
    alone; the batch raises if any of its vectors would."""
    rho_vals = np.asarray(rho_vals, dtype=float)
    weights = np.asarray(weights, dtype=float)
    batch = np.atleast_2d(rho_vals)
    active = weights > WEIGHT_FLOOR
    out = np.full(len(batch), np.inf)
    bounded = ~np.any(~active & (batch > DEFECT_FLOOR), axis=1)
    if np.any(bounded):
        if not np.any(active):
            raise PreconditionError("no probe carries positive weight")
        out[bounded] = np.max(batch[bounded][:, active] / weights[active], axis=1)
    return float(out[0]) if rho_vals.ndim == 1 else out


def rho_tilde_contraction_margin(rho_fn, psi, delta, gamma, probes):
    """Instrument the strict-contraction step of the scaling operator at
    probe scale.

    lhs is the probe rho-tilde of (T delta - T gamma), T = J^1.  The
    pointwise chain bounding it runs through the scale-shifted arguments
    (2x ascending, x/2 descending), so the right-hand rho-tilde is taken
    over the probes (x, z) followed by the shifted copies (2x or x/2, z).
    Both sides read J^0 and J^1 of delta - gamma from one ``_scaled_levels``
    call: the difference at the shifted copies is up J^1, up = 2^sign, a
    power-of-two rescaling.  The contraction factor is L in both directions:
    descending it is kappa*L/2 at the doubling constant ``modular.KAPPA`` =
    2.  Rho-tilde takes A's weight psi(x, x) psi(z, 0) in either direction.
    Returns (lhs, rhs, margin) with margin <= 0 up to rounding whenever the
    scaling law holds.
    """
    theorem, x, z = THEOREMS[psi.direction, "A"], probes.x, probes.z
    t0, t1 = _scaled_levels(lambda a, b: delta(a, b) - gamma(a, b), theorem.sign, [0, 1], x, z)
    lhs = rho_tilde_tabulated(rho_fn(t1), tilde_weights(psi, theorem, x, z))
    up = 2.0**theorem.sign
    vals = np.concatenate([t0, up * t1])
    x, z = np.concatenate([x, up * x]), np.concatenate([z, z])
    rhs = psi.L * rho_tilde_tabulated(rho_fn(vals), tilde_weights(psi, theorem, x, z))
    return lhs, rhs, lhs - rhs
