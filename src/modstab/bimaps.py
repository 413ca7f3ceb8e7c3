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
from .algebra import AlgebraSpec, sample_unit_circle
from .errors import ConfigError, NonFiniteValueError, PreconditionError

_PERTURBATION_NAMES = ("bounded_osc", "power_env", "quad_slot1")
_KERNEL_FORMS = ("commutator", "product", "conjugate_product", "tensor")
DIRECTIONS = ("ascending", "descending")


def _rows(v):
    a = np.asarray(v, dtype=np.complex128)
    return (a.reshape(1, -1), True) if a.ndim == 1 else (a, False)


@dataclass(frozen=True)
class Perturbation:
    name: str
    epsilon: float
    p: float = 2.0
    boundary_safe: bool = False

    def __post_init__(self):
        if self.name not in _PERTURBATION_NAMES:
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
        if self.kernel is not None and self.kernel not in _KERNEL_FORMS:
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
        n = X.shape[0]
        out = np.zeros((n, self.value_dim), dtype=np.complex128)
        if self.kernel_tensor is not None:
            left = np.conj(X) if self.kernel == "conjugate_product" else X
            out += _kernels.batch_mul(left, Z, self.kernel_tensor)
        g = self.perturbation
        if g is not None:
            pz = self._project(Z)
            # an overflowing term is reported by the finiteness check below,
            # not by numpy warnings
            norm = _kernels.rho_norm
            with np.errstate(over="ignore", invalid="ignore"):
                if g.name == "bounded_osc":
                    term = (g.epsilon * np.sin(_kernels._row_sum(X.real)))[:, None] * pz
                elif g.name == "quad_slot1":
                    # numpy's complex row sum, not _row_sum: it groups width-4
                    # rows its own way, and the payloads keep its bits
                    term = (g.epsilon * X.sum(axis=1) ** 2)[:, None] * pz
                else:  # power_env
                    v = np.zeros(self.value_dim, dtype=np.complex128)
                    v[0] = 1.0
                    term = (g.epsilon * (norm(X) ** g.p * norm(Z) ** g.p))[:, None] * v[None, :]
                if g.boundary_safe:
                    damp = (1.0 - np.exp(-norm(X) ** 2)) * (1.0 - np.exp(-norm(Z) ** 2))
                    term = damp[:, None] * term
                out += term
        if not np.isfinite(out).all():
            idx = int(np.argmax(~np.isfinite(out).all(axis=1)))
            raise NonFiniteValueError(
                f"map evaluation is not finite at batch row {idx}", probe_id=idx
            )
        return out[0] if (sx and sz) else out


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
        X, sx = _rows(x)
        Y, _ = _rows(y)
        out = np.sqrt(self.theta) * (self.norm_fn(X) ** self.p + self.norm_fn(Y) ** self.p)
        return float(out[0]) if sx else out

    def with_theta(self, theta):
        return PsiEnvelope(
            theta=float(theta),
            p=self.p,
            L=self.L,
            direction=self.direction,
            norm_fn=self.norm_fn,
        )


@dataclass(frozen=True)
class PsiLawReport:
    law_margin: float
    law_witness: int
    decay_ok: bool
    decay_ratio: float
    passed: bool


def check_psi_law(psi, probes, n_levels=30, floor_ratio=1e-9, tol=1e-9):
    """Scaling inequality on every probe plus an empirical vanishing test.

    The scaled sequence (psi(2^n x, 2^n y)/2^n ascending, 2^n psi(x/2^n,
    x/2^n) descending) must decrease monotonically while it sits above a
    noise floor of floor_ratio times its start value; values below the
    floor count as converged to zero.  One psi call evaluates all levels
    on the stacked scaled probes, row by row, as per-level calls would.
    """
    X, Y = probes.x, probes.y
    s = 2.0 ** np.arange(n_levels + 1)[:, None]
    if psi.direction == "ascending":
        sx, sy = ((s[:, :, None] * V).reshape(-1, V.shape[1]) for V in (X, Y))
        seq = psi(sx, sy).reshape(s.size, -1) / s
        margins = psi(2.0 * X, 2.0 * X) - 2.0 * psi.L * psi(X, X)
    else:
        sx = (X / s[:, :, None]).reshape(-1, X.shape[1])
        seq = s * psi(sx, sx).reshape(s.size, -1)
        margins = psi(X, X) - (psi.L / 2.0) * psi(2.0 * X, 2.0 * X)
    witness = int(np.argmax(margins))
    law_margin = float(margins[witness])

    start = seq[0]
    floor = floor_ratio * start
    live = seq[:-1] > floor[None, :]
    monotone = np.all((seq[1:] <= seq[:-1] * (1.0 + 1e-12)) | ~live)
    shrunk = (start == 0.0) | (seq[-1] < start) | (seq[-1] <= floor)
    decay_ok = bool(monotone and np.all(shrunk))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(start > 0.0, seq[-1] / start, 0.0)
    decay_ratio = float(np.max(ratios) ** (1.0 / n_levels)) if np.any(start > 0) else 0.0
    return PsiLawReport(
        law_margin=law_margin,
        law_witness=witness,
        decay_ok=decay_ok,
        decay_ratio=decay_ratio,
        passed=(law_margin <= tol) and decay_ok,
    )


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


def draw_probes(dim, count=512, radius=1.0, seed=0):
    if count < 17:
        raise ConfigError("need at least 17 probes to fit the mandatory tuples")
    rng = np.random.default_rng(seed)
    half = radius / np.sqrt(2.0)

    def block():
        return rng.uniform(-half, half, (count, dim)) + 1j * rng.uniform(-half, half, (count, dim))

    x, y, z, w = block(), block(), block(), block()
    lam = np.ones(count, dtype=np.complex128)
    lam[N_MANDATORY:] = sample_unit_circle(seed + 1, count - N_MANDATORY)

    base = slice(N_MANDATORY, N_MANDATORY + 4)
    bx, bz = x[base].copy(), z[base].copy()
    zero = np.zeros(dim, dtype=np.complex128)

    # rows 0-3: y = x, w = 0;  rows 4-7: y = w = 0;  rows 8-11: halved pair
    x[0:4], y[0:4], z[0:4], w[0:4] = bx, bx, bz, zero
    x[4:8], y[4:8], z[4:8], w[4:8] = bx, zero, bz, zero
    x[8:12], y[8:12], z[8:12], w[8:12] = bx / 2.0, bx / 2.0, bz, zero
    x[12], y[12], z[12], w[12] = zero, zero, zero, zero

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


def rho_tilde_tabulated(rho_vals, weights, weight_tol=1e-15, defect_tol=1e-12):
    """max rho(delta)/w over probes with positive weight; +inf when a
    zero-weight probe carries a nonvanishing defect (empty infimum)."""
    rho_vals = np.asarray(rho_vals, dtype=float)
    weights = np.asarray(weights, dtype=float)
    active = weights > weight_tol
    if np.any(~active & (rho_vals > defect_tol)):
        return float("inf")
    if not np.any(active):
        raise PreconditionError("no probe carries positive weight")
    return float(np.max(rho_vals[active] / weights[active]))


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
