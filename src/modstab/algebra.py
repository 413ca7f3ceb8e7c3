"""Finite-dimensional associative algebras given by structure constants,
plus the unit-circle scalar machinery used by the linearity checks."""

import cmath
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError, InvalidModularError, OutOfDiscError

_ASSOC_TOL = 1e-12
PRESETS = ("matrix2", "complex", "zero_mul")


class InvalidAlgebraError(ConfigError):
    """Structure constants that fail associativity."""


@dataclass(frozen=True)
class AlgebraSpec:
    """dim basis elements e_i with products e_i e_j = sum_k c[i,j,k] e_k.

    Associativity of the basis products is verified at construction.
    """

    dim: int
    structure: np.ndarray
    preset_name: str | None = None

    def __post_init__(self):
        c = np.asarray(self.structure, dtype=np.complex128)
        if c.shape != (self.dim, self.dim, self.dim):
            raise ConfigError(
                f"structure constants must have shape {(self.dim,) * 3}, got {c.shape}"
            )
        object.__setattr__(self, "structure", c)
        left = np.einsum("ijm,mkl->ijkl", c, c)
        right = np.einsum("jkm,iml->ijkl", c, c)
        err = float(np.max(np.abs(left - right))) if self.dim else 0.0
        if err > _ASSOC_TOL:
            raise InvalidAlgebraError(f"basis products are not associative (err={err:.3e})")


def preset(name, dim=None):
    """Built-in algebras: "matrix2", "complex", "zero_mul"."""
    if name == "matrix2":
        # 2x2 matrix units, basis order (E11, E12, E21, E22); E_ab E_cd = [b=c] E_ad
        c = np.zeros((4, 4, 4), dtype=np.complex128)
        for a in range(2):
            for b in range(2):
                for b2 in range(2):
                    for d in range(2):
                        if b == b2:
                            c[2 * a + b, 2 * b2 + d, 2 * a + d] = 1.0
        return AlgebraSpec(dim=4, structure=c, preset_name="matrix2")
    if name == "complex":
        return AlgebraSpec(dim=1, structure=np.ones((1, 1, 1), dtype=np.complex128), preset_name="complex")
    if name == "zero_mul":
        n = 2 if dim is None else int(dim)
        return AlgebraSpec(dim=n, structure=np.zeros((n, n, n), dtype=np.complex128), preset_name="zero_mul")
    raise ConfigError(f"unknown algebra preset {name!r}")


def mul(a, b, spec):
    """Bilinear product of coefficient vectors: a and b are each a (d,)
    vector (one row) or an (n, d) batch, with equal row counts."""
    (A, sa), (B, sb) = _kernels._rows(a), _kernels._rows(b)
    if A.shape[1] != spec.dim or B.shape[1] != spec.dim:
        raise ConfigError("element dimension does not match the algebra")
    if A.shape[0] != B.shape[0]:
        raise ConfigError("batch sizes differ")
    out = _kernels.batch_mul(A, B, spec.structure)
    return out[0] if sa and sb else out


def complex_uniform(rng, lo, hi, shape):
    """Complex samples whose real and imaginary parts are uniform on
    [lo, hi), the real parts drawn from ``rng`` first.  Built in place, so
    no complex temporary: the bits of ``rng.uniform(lo, hi, shape) + 1j *
    rng.uniform(lo, hi, shape)``."""
    out = np.empty(shape, dtype=np.complex128)
    out.real = rng.uniform(lo, hi, shape)
    out.imag = rng.uniform(lo, hi, shape)
    return out


def sample_unit_circle(seed, n):
    """{1, -1, i, -i} followed by n-4 seeded points on the unit circle."""
    if n < 4:
        raise ConfigError("need n >= 4 to cover the mandatory corner scalars")
    out = np.empty(n, dtype=np.complex128)
    out[:4] = [1.0, -1.0, 1j, -1j]
    if n > 4:
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, 2.0 * np.pi, n - 4)
        out[4:] = np.cos(theta) + 1j * np.sin(theta)
    return out


@dataclass(frozen=True)
class UnimodularTriple:
    mu1: complex
    mu2: complex
    mu3: complex

    def __post_init__(self):
        for mu in (self.mu1, self.mu2, self.mu3):
            if abs(abs(mu) - 1.0) > 1e-12:
                raise InvalidModularError(f"triple entry {mu!r} is not unimodular")

    def as_array(self):
        return np.array([self.mu1, self.mu2, self.mu3], dtype=np.complex128)

    @property
    def total(self):
        return self.mu1 + self.mu2 + self.mu3


_CUBE_ROOTS = (
    complex(1.0, 0.0),
    complex(-0.5, np.sqrt(3.0) / 2.0),
    complex(-0.5, -np.sqrt(3.0) / 2.0),
)


def three_unimodular_decomposition(w):
    """Write w with |w| <= 3 as a sum of three unimodular scalars.

    mu3 points along w; the residual r = w - mu3 has |r| <= 2 and splits
    symmetrically as e^{i(theta+phi)} + e^{i(theta-phi)} with theta = arg r
    and phi = arccos(|r|/2).  The tie-break theta = 0 for r = 0 keeps the
    output deterministic.  A non-finite w, or one outside the disc, raises
    OutOfDiscError.
    """
    w = complex(w)
    if not cmath.isfinite(w):
        raise OutOfDiscError(f"w = {w} is not finite")
    if abs(w) > 3.0 + 1e-12:
        raise OutOfDiscError(f"|w| = {abs(w):.6g} exceeds 3")
    if w == 0:
        return UnimodularTriple(*_CUBE_ROOTS)
    ws = w
    if abs(ws) < 1e-200:
        # lift denormal-range inputs by an exact power of two before
        # normalizing; the direction is unchanged and precision restored
        ws = w * 2.0**800
    mu3 = ws / abs(ws)
    r = w - mu3
    ar = abs(r)
    theta = cmath.phase(r) if ar > 0.0 else 0.0
    phi = np.arccos(min(ar / 2.0, 1.0))
    mu1 = cmath.rect(1.0, theta + phi)
    mu2 = cmath.rect(1.0, theta - phi)
    if phi == 0.0:
        # exact boundary: rect() would reintroduce rounding
        mu1 = mu2 = cmath.rect(1.0, theta)
        if theta == 0.0:
            mu1 = mu2 = complex(1.0, 0.0)
    return UnimodularTriple(mu1, mu2, mu3)
