"""Modulars on a finite-dimensional coefficient space.

A modular rho generalizes a norm: rho(x) = 0 iff x = 0, rho is invariant
under unimodular scalars, and rho(a*x + b*y) <= rho(x) + rho(y) whenever
a, b >= 0 and a + b = 1 (convex modulars sharpen the right side to
a*rho(x) + b*rho(y)).  Three families are built in:

    norm         rho(x) = ||x||_2
    power(p>=1)  rho(x) = sum_i |x_i|^p
    orlicz(phi)  rho(x) = sum_i phi(|x_i|), phi a named scalar preset

The Luxemburg norm of a convex modular is inf{lam > 0 : rho(x/lam) <= 1}.
For a q-homogeneous modular, rho(t*x) = t**q * rho(x) for t > 0, it is
exactly rho(x)**(1/q): norm and orlicz "linear" (q = 1), power p (q = p)
and orlicz "square" (q = 2).  The other presets have no closed form and
are bisected: the monotonicity of lam -> rho(x/lam) makes the predicate
exact to bisect, and a batch of rows is bisected in lockstep, one modular
evaluation per step for all rows still open.  The callable from
``coeff_norm_fn`` bisects each distinct row once over its own lifetime,
which is one scenario run, and reads a repeated row's norm from its memo.

Everything here is sampled verification: the checkers quantify over
caller-supplied finite sample sets and report worst margins, never over
the full space.  Each returns ``report.CheckResult`` rows, which pass by
the one rule lhs - rhs <= tol, like every other check.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .algebra import complex_uniform
from .errors import (
    BracketDivergenceError,
    ConfigError,
    InvalidModularError,
    PreconditionError,
    UnsupportedModularError,
)
from .report import CheckResult

PHI_PRESETS = {
    "square": _kernels.PHI_SQUARE,
    "exp_minus_one": _kernels.PHI_EXP_MINUS_ONE,
    "linear": _kernels.PHI_LINEAR,
    # dead_zone is deliberately *not* a modular: phi(t) = max(t-1, 0)
    # vanishes on a neighbourhood of 0, so rho(x) = 0 for small x != 0.
    # It exists as the broken fixture the axiom checker must catch.
    "dead_zone": _kernels.PHI_DEAD_ZONE,
}

# the presets with phi(t*s) = t**q * phi(s) for t > 0, by their degree q
_PHI_HOMOGENEITY = {"linear": 1.0, "square": 2.0}

MODULAR_KINDS = ("norm", "power", "orlicz")
AXIOM_TOL = 1e-12


@dataclass(frozen=True)
class ModularSpec:
    """A named modular plus its claimed doubling constant kappa.

    kappa is the claimed constant in rho(2x) <= kappa*rho(x) and must lie
    in (0, 2]; check_delta2 measures the actual constant against it.  A
    built-in whose true doubling constant exceeds 2 (power p > 1, orlicz
    "square") simply fails check_delta2 and is thereby excluded from
    iteration scenarios while remaining usable in unit fixtures.
    """

    kind: str
    p: float = 2.0
    phi: str = "square"
    convex: bool = True
    kappa: float = 2.0

    def __post_init__(self):
        if self.kind not in MODULAR_KINDS:
            raise ConfigError(f"unknown modular kind {self.kind!r}")
        if self.kind == "power" and self.p < 1.0:
            raise ConfigError("power modular requires p >= 1")
        if self.kind in ("norm", "power") and not self.convex:
            raise ConfigError(f"{self.kind} modular is convex; convex=False is inconsistent")
        if self.kind == "orlicz" and self.phi not in PHI_PRESETS:
            raise ConfigError(f"unknown orlicz preset {self.phi!r}; options: {sorted(PHI_PRESETS)}")
        if not (0.0 < self.kappa <= 2.0):
            raise ConfigError("kappa must lie in (0, 2]")

    @property
    def homogeneity(self):
        """The degree q with rho(t*x) = t**q * rho(x) for every t > 0, or
        None when rho is not homogeneous (orlicz "exp_minus_one",
        "dead_zone")."""
        if self.kind == "norm":
            return 1.0
        if self.kind == "power":
            return self.p
        return _PHI_HOMOGENEITY.get(self.phi)


def _as_rows(x):
    """Coerce a vector or a stack of vectors to (n, dim) complex128."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim == 1:
        return a.reshape(1, -1), True
    if a.ndim == 2:
        return a, False
    raise ConfigError(f"expected a vector or a batch of vectors, got ndim={a.ndim}")


def eval_modular(m, x):
    """rho(x); accepts a single vector or an (n, dim) batch.

    Returns 0 exactly iff x = 0 for the honest kinds.  Orlicz presets with
    unbounded phi may overflow to +inf; downstream sweeps treat that as an
    abort condition.
    """
    rows, squeeze = _as_rows(x)
    if m.kind == "norm":
        out = _kernels.rho_norm(rows)
    elif m.kind == "power":
        out = _kernels.rho_power(rows, m.p)
    else:
        out = _kernels.rho_orlicz(rows, PHI_PRESETS[m.phi])
        if np.any(out < 0):
            raise InvalidModularError("orlicz phi produced a negative value")
    return float(out[0]) if squeeze else out


def coeff_norm_fn(m):
    """Row-wise Luxemburg norm of ``m`` for one vector (a float) or an
    (n, dim) batch (an (n,) array), like ``luxemburg_norm``.

    A homogeneous modular's callable calls ``luxemburg_norm`` directly: its
    closed form costs one modular evaluation.  Any other modular's callable
    remembers the norm of every row it has bisected, keyed by the row's
    exact bytes, for as long as the callable lives (one run: ``build_psi``
    makes one per run and every envelope derived from it shares it).  It
    bisects a batch's unseen rows, once each, in one ``luxemburg_norm``
    call, which gives every row the norm it would get alone.
    """
    if m.homogeneity is not None:
        def norm_fn(x):
            # looked up at call time, so a wrapper installed on the module sees it
            return luxemburg_norm(m, x)

        return norm_fn
    memo = {}

    def norm_fn(x):
        rows, single = _as_rows(x)
        rows = np.ascontiguousarray(rows)
        # each row's exact bytes, not a digest: a collision would return a wrong norm
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
        fresh = {key: i for i, key in enumerate(keys) if key not in memo}
        if fresh:
            memo.update(zip(fresh, luxemburg_norm(m, rows[list(fresh.values())]).tolist()))
        out = np.array([memo[key] for key in keys], dtype=float)
        return float(out[0]) if single else out

    return norm_fn


def luxemburg_norm(m, x, tol=1e-12):
    """inf{lam > 0 : rho(x/lam) <= 1} of a convex modular.

    ``x`` is a single vector (returns a float) or an (n, dim) batch
    (returns an (n,) array); a zero row has norm 0.  A q-homogeneous
    modular (``ModularSpec.homogeneity``) takes the closed form
    rho(x)**(1/q), exact to rounding, and ignores ``tol``.  Any other
    modular is bisected to within ``tol`` (see ``_bisect_luxemburg``).
    """
    if not m.convex:
        raise UnsupportedModularError("Luxemburg norm requires a convex modular")
    if not tol > 0:  # NaN too: a NaN tol would stop the bisection at once
        raise ConfigError("tol must be positive")
    rows, single = _as_rows(np.atleast_1d(x))
    q = m.homogeneity
    if q is None:
        out = _bisect_luxemburg(m, rows, tol)
    else:
        out = eval_modular(m, rows)
        if q != 1.0:
            out = out ** (1.0 / q)
    return float(out[0]) if single else out


def _bisect_luxemburg(m, rows, tol):
    """The Luxemburg norm of each row of an (n, dim) batch by bracketing
    bisection; right for every convex modular, homogeneous or not.

    Every row runs the same three phases: double lam from 1 until
    rho(x/lam) <= 1 (giving up past 2**64, which only pathological inputs
    reach), halve it while that still holds (a row still under at 2**-64
    has norm 0), then bisect the bracket.  The rows move in lockstep, one
    rho evaluation per step over the rows still active, and each row sees
    the lam sequence it would see alone.  A row stops once hi - lo <= tol
    or once the midpoint rounds onto an end of the bracket, which can then
    no longer shrink (|x| >~ 1e4 at the default tol).
    """
    out = np.zeros(rows.shape[0])  # all-zero rows keep norm 0
    live = np.flatnonzero(np.any(rows != 0, axis=1))
    rows = rows[live]

    def under(pos, lam):
        return eval_modular(m, rows[pos] / lam[:, None]) <= 1.0

    cap = 2.0**64
    hi = np.ones(live.size)
    pos = np.arange(live.size)
    while pos.size:
        pos = pos[~under(pos, hi[pos])]
        hi[pos] *= 2.0
        if np.any(hi[pos] > cap):
            raise BracketDivergenceError("no upper bracket for the Luxemburg norm below 2**64")
    lo = hi / 2.0
    vanished = np.zeros(live.size, dtype=bool)
    pos = np.arange(live.size)
    while pos.size:
        pos = pos[under(pos, lo[pos])]
        hi[pos] = lo[pos]
        lo[pos] /= 2.0
        # rho(x/lam) <= 1 persists down to tiny lam: infimum is 0
        tiny = lo[pos] < 1.0 / cap
        vanished[pos[tiny]] = True
        pos = pos[~tiny]
    pos = np.flatnonzero(~vanished)
    while True:
        l, h = lo[pos], hi[pos]
        mid = 0.5 * (l + h)
        go = (h - l > tol) & (mid != l) & (mid != h)
        if not go.any():
            break
        pos, mid = pos[go], mid[go]
        ok = under(pos, mid)
        hi[pos[ok]] = mid[ok]
        lo[pos[~ok]] = mid[~ok]
    out[live] = np.where(vanished, 0.0, 0.5 * (lo + hi))
    return out


# ---------------------------------------------------------------------------
# sampled checkers: each returns one-row report.CheckResults, whose lhs is a
# worst margin (kappa_hat for delta2), so CheckResult computes the pass bit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomSamples:
    """Struct-of-arrays sample set for the axiom checker.

    x, y: (n, dim) complex; alpha, beta: (n,) nonnegative with
    alpha + beta = 1; zeta: (n,) unimodular scalars for the invariance
    axiom.
    """

    x: np.ndarray
    y: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        if np.any(self.alpha < 0) or np.any(self.beta < 0):
            raise PreconditionError("alpha, beta must be nonnegative")
        if np.max(np.abs(self.alpha + self.beta - 1.0)) > 1e-12:
            raise PreconditionError("alpha + beta must equal 1")
        if np.max(np.abs(np.abs(self.zeta) - 1.0)) > 1e-12:
            raise PreconditionError("zeta must be unimodular")

    def __len__(self):
        return self.x.shape[0]


def draw_axiom_samples(dim, count, seed, radius=1.0):
    rng = np.random.default_rng(seed)
    half = radius / np.sqrt(2.0)
    x = complex_uniform(rng, -half, half, (count, dim))
    y = complex_uniform(rng, -half, half, (count, dim))
    alpha = rng.uniform(0.0, 1.0, count)
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    zeta = np.cos(theta) + 1j * np.sin(theta)
    return AxiomSamples(x=x, y=y, alpha=alpha, beta=1.0 - alpha, zeta=zeta)


def axiom_names(m):
    """The axioms ``check_modular_axioms`` checks on ``m``, in its order:
    the convex axiom only on a convex modular."""
    return ("i", "ii", "iii", "iii_convex") if m.convex else ("i", "ii", "iii")


def _worst(margins):
    """(margin, witness): the worst margin, as the first argmax picks it
    (so a NaN is the worst), and its sample index."""
    i = int(np.argmax(margins))
    return float(margins[i]), i


def check_modular_axioms(m, samples):
    """One ``modular_axiom`` result per axiom of ``axiom_names(m)``, keyed
    by the axiom's name: the worst violation margin over the sample set
    and its witness, which passes iff margin <= ``AXIOM_TOL``.

    For the definiteness axiom the margin is an indicator: 1.0 for a
    sampled x != 0 with rho(x) = 0 (or rho(0) for a zero sample), negative
    otherwise, so any strict violation dominates.
    """
    # a modular whose values exceed float64 at the sampled radius yields inf,
    # and inf - inf a NaN margin, which fails its row by the pass rule
    with np.errstate(over="ignore", invalid="ignore"):
        rx = eval_modular(m, samples.x)
        ry = eval_modular(m, samples.y)

        nonzero = np.any(samples.x != 0, axis=1)
        definite = np.where(nonzero, np.where(rx > 0.0, -rx, 1.0), rx)

        invariance = np.abs(eval_modular(m, samples.zeta[:, None] * samples.x) - rx)

        combo = samples.alpha[:, None] * samples.x + samples.beta[:, None] * samples.y
        rc = eval_modular(m, combo)
        subadd = rc - (rx + ry)

        margins = [definite, invariance, subadd]
        if m.convex:
            margins.append(rc - (samples.alpha * rx + samples.beta * ry))
    results = {}
    for axiom, margin in zip(axiom_names(m), margins):
        worst, witness = _worst(margin)
        results[axiom] = CheckResult.one("modular_axiom", worst, 0.0, AXIOM_TOL,
                                         {"axiom": axiom, "margin": worst, "witness": witness})
    return results


def check_delta2(m, samples):
    """The ``delta2`` result: the measured doubling constant
    kappa_hat = max rho(2x)/rho(x) against the claimed kappa, which passes
    iff kappa_hat <= kappa + 1e-9 (lhs kappa_hat, rhs kappa + 1e-9, tol 0)."""
    rows, _ = _as_rows(samples)
    if rows.shape[0] == 0:
        raise PreconditionError("need at least one sample")
    nonzero = np.any(rows != 0, axis=1)
    if not np.all(nonzero):
        raise PreconditionError("delta2 samples must be nonzero")
    with np.errstate(over="ignore", invalid="ignore"):
        r1 = eval_modular(m, rows)
        if np.any(r1 == 0.0):
            raise InvalidModularError("rho(x) = 0 for a nonzero sample: not a modular")
        r2 = eval_modular(m, 2.0 * rows)
        kappa_hat = float(np.max(r2 / r1))
    # kappa_hat - cap <= 0 iff kappa_hat <= cap, in IEEE arithmetic
    return CheckResult.one("delta2", kappa_hat, m.kappa + 1e-9, 0.0, {"kappa_hat": kappa_hat})


@dataclass(frozen=True)
class RemarkSamples:
    """x: (n, dim); 0 < a < b scaling pairs; |alpha| <= 1 scalars."""

    x: np.ndarray
    a: np.ndarray
    b: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        if np.any(self.a <= 0) or np.any(self.a >= self.b):
            raise PreconditionError("need 0 < a < b")
        if np.any(np.abs(self.alpha) > 1.0 + 1e-12):
            raise PreconditionError("need |alpha| <= 1")


def draw_remark_samples(dim, count, seed, radius=1.0):
    rng = np.random.default_rng(seed)
    half = radius / np.sqrt(2.0)
    x = complex_uniform(rng, -half, half, (count, dim))
    a = rng.uniform(0.05, 0.95, count)
    b = a + rng.uniform(0.05, 1.0, count)
    alpha = rng.uniform(-1.0, 1.0, count)
    return RemarkSamples(x=x, a=a, b=b, alpha=alpha)


def check_remark_properties(m, samples):
    """The ``remark_properties`` result: monotonicity in the scalar, and for
    convex modulars also rho(alpha*x) <= |alpha| rho(x) and
    rho(x) <= rho(2x)/2.  Each property's margin is its worst over the
    samples (None when not computed); the row's lhs is the largest margin,
    so it passes iff every margin is <= ``AXIOM_TOL``, and a NaN fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        rx = eval_modular(m, samples.x)
        inc = eval_modular(m, samples.a[:, None] * samples.x) - eval_modular(
            m, samples.b[:, None] * samples.x
        )
        increasing, _ = _worst(inc)
        scalar = half_double = None
        if m.convex:
            sc = eval_modular(m, samples.alpha[:, None] * samples.x) - np.abs(samples.alpha) * rx
            scalar, _ = _worst(sc)
            hd = rx - 0.5 * eval_modular(m, 2.0 * samples.x)
            half_double, _ = _worst(hd)
    worst = np.max([v for v in (increasing, scalar, half_double) if v is not None])
    return CheckResult.one("remark_properties", worst, 0.0, AXIOM_TOL, {
        "increasing_margin": increasing, "scalar_margin": scalar, "half_double_margin": half_double,
    })

