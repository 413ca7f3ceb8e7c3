"""Two-variable maps d : A x A -> X, their perturbations, probe sets, the
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

PERTURBATION_NAMES = ("bounded_osc", "power_env", "quad_slot1")
KERNEL_FORMS = ("commutator", "product", "conjugate_product", "tensor")
DIRECTIONS = ("ascending", "descending")
PSI_LAW_TOL = 1e-9
# a weight at most WEIGHT_FLOOR counts as zero, and so does a defect at most DEFECT_FLOOR
WEIGHT_FLOOR = 1e-15
DEFECT_FLOOR = 1e-12


def _rows(v):
    """(C-contiguous (n, dim) rows, whether v was one vector): a row's
    bits then do not depend on the caller's memory layout."""
    a = np.ascontiguousarray(v, dtype=np.complex128)
    return (a.reshape(1, -1), True) if a.ndim == 1 else (a, False)


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
    """Evaluatable map d(x, z) = kernel + optional perturbation.

    The kernel is exactly bilinear: a named closed form over the algebra
    product, or an explicit coefficient tensor into a value space of
    dimension tensor.shape[2].  Every form is held as one structure tensor
    T, built at construction, and evaluated as sum_ij x_i z_j T[i,j,:]
    (x conjugated for conjugate_product).  Perturbed maps need not be
    bilinear.
    """

    algebra: AlgebraSpec
    kernel: str | None = "commutator"
    coeff: complex = 1.0 + 0.0j
    tensor: np.ndarray | None = None
    perturbation: Perturbation | None = None
    zero_boundary: bool = True
    kernel_tensor: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kernel is not None and self.kernel not in KERNEL_FORMS:
            raise ConfigError(f"unknown kernel form {self.kernel!r}")
        if self.kernel is None and self.perturbation is None:
            raise ConfigError("map needs a kernel or a perturbation")
        c = self.algebra.structure
        t = None
        if self.kernel == "tensor":
            t = np.asarray(self.tensor, dtype=np.complex128)
            d = self.algebra.dim
            if t.ndim != 3 or t.shape[0] != d or t.shape[1] != d:
                raise ConfigError(f"kernel tensor must be ({d},{d},value_dim)")
            object.__setattr__(self, "tensor", t)
        elif self.kernel == "commutator":
            t = self.coeff * (c - c.transpose(1, 0, 2))
        elif self.kernel is not None:  # product, conjugate_product
            t = self.coeff * c
        object.__setattr__(self, "kernel_tensor", t)
        g = self.perturbation
        if g is not None and g.name == "power_env" and self.value_dim == 0:
            raise ConfigError("power_env needs a value space with a first coordinate")

    @property
    def value_dim(self):
        if self.kernel_tensor is None:
            return self.algebra.dim
        return self.kernel_tensor.shape[2]

    def _project(self, Z):
        vd = self.value_dim
        d = Z.shape[1]
        if vd == d:
            return Z
        if vd < d:
            return Z[:, :vd]
        out = np.zeros((Z.shape[0], vd), dtype=np.complex128)
        out[:, :d] = Z
        return out

    def __call__(self, x, z):
        X, sx = _rows(x)
        Z, sz = _rows(z)
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
                out = np.ascontiguousarray(_kernels.batch_mul(left, Z, self.kernel_tensor))
            else:
                out = np.zeros((X.shape[0], self.value_dim), dtype=np.complex128)
            if g is not None:
                pz, target = self._project(Z), out
                norm = _kernels.rho_norm
                if g.name == "bounded_osc":
                    term = (g.epsilon * np.sin(_kernels._row_sum(X.real)))[:, None] * pz
                elif g.name == "quad_slot1":
                    # numpy's complex row sum, not _row_sum: it groups width-4
                    # rows its own way, and the payloads keep its bits
                    term = (g.epsilon * X.sum(axis=1) ** 2)[:, None] * pz
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


def iterate_evaluator(f, direction, level):
    """The level-n scaled map 2^-n f(2^n x, z) (or its descending twin)."""
    scale = 2.0**level
    if direction == "ascending":
        return lambda x, z: f(scale * np.asarray(x, dtype=np.complex128), z) / scale
    if direction == "descending":
        return lambda x, z: scale * f(np.asarray(x, dtype=np.complex128) / scale, z)
    raise ConfigError(f"unknown direction {direction!r}")


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
    (descending, p > 1); omitted L defaults to the sharp one for the
    declared direction.

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
            default = 2.0 ** (self.p - 1.0) if self.direction == "ascending" else 2.0 ** (1.0 - self.p)
            object.__setattr__(self, "L", default)
        if not (0.0 < self.L < 1.0):
            raise ConfigError(
                f"L = {self.L} is outside (0, 1); the scaling law has no contraction there"
            )
        if self.norm_fn is None:
            object.__setattr__(self, "norm_fn", _kernels.rho_norm)

    def __call__(self, x, y):
        """psi row by row; psi(x, x) with one array object takes its norms once."""
        X, sx = _rows(x)
        nx = self.norm_fn(X) ** self.p
        ny = nx if y is x else self.norm_fn(_rows(y)[0]) ** self.p
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
    n_levels = 30
    X, Y = probes.x, probes.y
    n, dim = X.shape
    s = 2.0 ** np.arange(n_levels + 1)[:, None]
    seq = np.empty((s.size, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for b in _kernels.row_blocks(s.size, n):
            if psi.direction == "ascending":
                sx, sy = ((s[b, :, None] * V).reshape(-1, dim) for V in (X, Y))
                seq[b] = psi(sx, sy).reshape(seq[b].shape) / s[b]
            else:
                sx = (X / s[b, :, None]).reshape(-1, dim)
                seq[b] = s[b] * psi(sx, sx).reshape(seq[b].shape)
        X2 = 2.0 * X
        if psi.direction == "ascending":
            margins = psi(X2, X2) - 2.0 * psi.L * psi(X, X)
        else:
            margins = psi(X, X) - (psi.L / 2.0) * psi(X2, X2)
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
    mandatory: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("x", "y", "z", "w"):
            a = getattr(self, name)
            if not np.isfinite(a).all():
                raise ConfigError(f"probe field {name} contains non-finite entries")

    def __len__(self):
        return self.x.shape[0]

    @property
    def count(self):
        return len(self)


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
    mandatory = {
        "first_equal": np.arange(0, 4),
        "second_zero": np.arange(4, 8),
        "halved": np.arange(8, 12),
        "zero": np.array([12]),
    }
    return ProbeSet(x=x, y=y, z=z, w=w, lam=lam, seed=seed, radius=radius, mandatory=mandatory)


# ---------------------------------------------------------------------------
# probe-restricted function-space modular
# ---------------------------------------------------------------------------

WEIGHT_KINDS = ("psi_xx_z0", "psi_x0_z0")


@dataclass(frozen=True)
class RhoTildeWeight:
    """Pointwise weight w(x, z); the two variants the estimates use are
    psi(x,x) psi(z,0) and psi(x,0) psi(z,0).  Scenarios pick one
    explicitly."""

    psi: PsiEnvelope
    kind: str = "psi_xx_z0"

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise ConfigError(f"weight kind must be one of {WEIGHT_KINDS}")

    def values(self, X, Z):
        zero = np.zeros_like(X)
        if self.kind == "psi_xx_z0":
            first = self.psi(X, X)
        else:
            first = self.psi(X, zero)
        return first * self.psi(Z, np.zeros_like(Z))


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


def rho_tilde(rho_fn, weight, delta, probes):
    """Probe-set lower bound for the induced modular of a difference map.

    rho_fn maps an (n, value_dim) batch to the (n,) modular values;
    delta(x, z) evaluates the difference map on batches.
    """
    vals = rho_fn(delta(probes.x, probes.z))
    w = weight.values(probes.x, probes.z)
    return rho_tilde_tabulated(vals, w)


def rho_tilde_contraction_margin(rho_fn, weight, delta, gamma, probes, kappa=2.0):
    """Instrument the strict-contraction step of the scaling operator at
    probe scale.

    lhs is the probe rho-tilde of (T delta - T gamma).  The pointwise
    chain bounding it runs through the scale-shifted arguments (2x
    ascending, x/2 descending), so the right-hand rho-tilde is evaluated
    on the probe set enriched with those shifted copies; the contraction
    factor is L ascending and kappa*L/2 descending.  Returns (lhs, rhs,
    margin) with margin <= 0 up to rounding whenever the scaling law
    holds.
    """
    psi = weight.psi
    direction = psi.direction

    def diff(x, z):
        return delta(x, z) - gamma(x, z)

    lhs = rho_tilde(rho_fn, weight, iterate_evaluator(diff, direction, 1), probes)
    if direction == "ascending":
        shifted_x = 2.0 * probes.x
        factor = psi.L
    else:
        shifted_x = probes.x / 2.0
        factor = kappa * psi.L / 2.0
    enriched = ProbeSet(
        x=np.concatenate([probes.x, shifted_x]),
        y=np.concatenate([probes.y, probes.y]),
        z=np.concatenate([probes.z, probes.z]),
        w=np.concatenate([probes.w, probes.w]),
        lam=np.concatenate([probes.lam, probes.lam]),
        seed=probes.seed,
        radius=probes.radius * 2.0,
        mandatory={},
    )
    rhs = factor * rho_tilde(rho_fn, weight, diff, enriched)
    return lhs, rhs, lhs - rhs
