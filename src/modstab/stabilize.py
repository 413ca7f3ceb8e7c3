"""Direct-method engine: iterate the scaled map until the probe-sup
modular distance between successive candidates drops below tolerance,
freeze the bi-additive limit, and instrument every quantitative claim
made about the iteration on the way."""

from dataclasses import dataclass, field

import numpy as np

from .bimaps import (
    DIRECTIONS,
    ProbeSet,
    RhoTildeWeight,
    check_psi_law,
    iterate_evaluator,
    rho_tilde_tabulated,
)
from .errors import (
    ConfigError,
    NonFiniteValueError,
    OverflowAbort,
    PreconditionError,
)


@dataclass(frozen=True)
class StabilizeConfig:
    direction: str
    probes: ProbeSet
    n_max: int = 40
    tol: float = 1e-10
    # 2^40 * radius-1 coordinates reach ~1.1e12, so the cap sits well above
    # that while still guarding squared/relu'd evaluations against overflow
    magnitude_cap: float = 1e15

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"direction must be one of {DIRECTIONS}")
        if self.n_max < 1:
            raise ConfigError("n_max must be >= 1")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")


@dataclass(frozen=True)
class LevelDiag:
    level: int
    sup_rho_delta: float
    rho_tilde_delta: float
    telescoping_kappa_margin: float | None
    telescoping_final_margin: float | None


@dataclass
class StabilizeOutcome:
    D: object
    N_converged: int
    converged: bool
    contraction_estimate: float = 0.0
    bound_margin: float = float("nan")
    levels: list = field(default_factory=list)
    weights: np.ndarray | None = None


def hyers_bound(psi, x, z):
    """psi(x,x) psi(z,0) / (2 (1 - L)): the a-priori distance between the
    perturbed map and its extracted bi-additive limit."""
    if not (0.0 < psi.L < 1.0):
        raise ConfigError("hyers bound needs L in (0, 1)")
    x = np.asarray(x, dtype=np.complex128)
    zero = np.zeros_like(np.asarray(z, dtype=np.complex128))
    return psi(x, x) * psi(z, zero) / (2.0 * (1.0 - psi.L))


def estimate_contraction(history):
    """Geometric-mean ratio of successive nonzero deltas; 0 when the
    iteration sat at a fixed point the whole time."""
    if len(history) < 3:
        raise PreconditionError("need at least 3 recorded deltas")
    h = [float(v) for v in history if np.isfinite(v)]
    ratios = [b / a for a, b in zip(h, h[1:]) if a > 0.0 and b > 0.0]
    if not ratios:
        return 0.0
    return float(np.exp(np.mean(np.log(ratios))))


class _Telescope:
    """Per-level majorants for the defect against the level-0 map.

    Ascending uses the geometric partial sum
        sum_{i<=n} 2^-i psi(2^(i-1) x, 2^(i-1) x) psi(z, 0),
    whose full sum is bounded by psi(x,x) psi(z,0)/(2(1-L)).
    Descending uses the kappa-weighted table (two variants, one keyed by
    psi at the halved diagonal, one by psi(. , 0)); at kappa = 2 the table
    coincides with the honest unrolled recursion.  ``final`` is the full
    bound, ``hyers_bound`` on the probes.
    """

    def __init__(self, form, psi, X, Z, kappa, final):
        self.form = form
        self.psi = psi
        self.X = X
        self.kappa = kappa
        self.psi_z0 = psi(Z, np.zeros_like(Z))
        self.final = final
        self._cum = np.zeros(X.shape[0])
        self._terms = {}

    def _term(self, i):
        if i not in self._terms:
            X = self.X
            zero = np.zeros_like(X)
            if self.form == "ascending":
                u = 2.0 ** (i - 1) * X
                self._terms[i] = self.psi(u, u)
            elif self.form == "kappa_both_slots":
                u = X / (2.0 if i == 1 else 2.0**i)
                self._terms[i] = self.psi(u, u)
            elif self.form == "kappa_first_zero":
                s = 1.0 if i == 1 else 2.0 ** (i - 1)
                self._terms[i] = self.psi(X / s, zero)
            else:
                raise ConfigError(f"unknown telescoping form {self.form!r}")
        return self._terms[i]

    def majorant(self, n):
        if self.form == "ascending":
            self._cum = self._cum + 2.0 ** (-n) * self._term(n)
            return self._cum * self.psi_z0
        k = self.kappa
        acc = k ** (n - 1) / 2.0 ** (n - 1) * self._term(1)
        for i in range(2, n + 1):
            acc = acc + k**n / 2.0 ** (n - i + 1) * self._term(i)
        return acc * self.psi_z0


def _auto_telescope_form(direction, weight_kind):
    if direction == "ascending":
        return "ascending"
    return "kappa_first_zero" if weight_kind == "psi_x0_z0" else "kappa_both_slots"


def _tabulate(d, cfg, level, max_abs_x):
    X, cap = cfg.probes.x, cfg.magnitude_cap
    if cfg.direction == "ascending" and 2.0**level * max_abs_x > cap:
        probe = int(np.argmax(np.abs(X).max(axis=1)))
        raise OverflowAbort(
            f"2^{level} scaling exceeds the magnitude cap {cap:g}",
            level=level,
            probe_id=probe,
        )
    vals = iterate_evaluator(d, cfg.direction, level)(X, cfg.probes.z)
    if not np.isfinite(vals).all():
        bad = int(np.argmax(~np.isfinite(vals).all(axis=1)))
        raise NonFiniteValueError(
            f"non-finite iterate value at level {level}", probe_id=bad, level=level
        )
    return vals


class LevelTable:
    """The scaled iterates J^n d of the map ``d`` on the probes of ``cfg``,
    each level evaluated once: the one input of a run's iteration.

    ``stabilize``, ``check_uniqueness`` and ``calibrate_theta`` take the
    table and read the map, the probes, the direction, the level cap n_max,
    the tolerance and the magnitude cap from it.  ``table[n]`` tabulates
    level n the first time it is asked for, with that level's magnitude-cap
    and finiteness aborts, and returns the stored (read-only) array after
    that.  Calibration reads levels up to n_max before the iteration runs
    and stops at a magnitude-cap abort, so a run still aborts at the same
    level and probe as it would without the table.
    """

    def __init__(self, d, cfg):
        self.d = d
        self.cfg = cfg
        x = cfg.probes.x
        self._max_abs_x = float(np.abs(x).max()) if x.size else 0.0
        self._levels = {}

    def __getitem__(self, level):
        vals = self._levels.get(level)
        if vals is None:
            vals = _tabulate(self.d, self.cfg, level, self._max_abs_x)
            vals.flags.writeable = False
            self._levels[level] = vals
        return vals


def _level_rho(table, rho_fn, n):
    """Per-probe rho(T[n] - T[n-1]), aborting on a non-finite value."""
    diff_rho = rho_fn(table[n] - table[n - 1])
    if not np.isfinite(diff_rho).all():
        raise NonFiniteValueError("non-finite modular value", level=n)
    return diff_rho


def stabilize(
    table,
    psi,
    rho_fn,
    weight_kind="psi_xx_z0",
    kappa=2.0,
    telescoping=True,
    skip_psi_check=False,
):
    """Run the scaled iteration on ``table`` and freeze the limit candidate.

    The map d and its StabilizeConfig cfg are ``table.d`` and ``table.cfg``.
    rho_fn maps an (n, value_dim) batch to its (n,) modular values.
    Stops when the probe-sup modular distance between successive
    candidates drops below cfg.tol (convergence) or at cfg.n_max.  Each
    level's ``rho_tilde_delta`` is the probe-restricted function-space
    modular of the successive difference; the stopping rule deliberately
    uses the plain probe-sup ``sup_rho_delta`` so zero-weight boundary
    probes cannot produce 0/0.  A run iterates once: ``check_uniqueness``
    reads its reruns off the outcome's levels.
    """
    d, cfg = table.d, table.cfg
    if not getattr(d, "zero_boundary", True):
        raise PreconditionError("the map must vanish on the axes (zero_boundary)")
    if psi.direction != cfg.direction:
        raise PreconditionError("psi scaling direction disagrees with the iteration direction")
    if not skip_psi_check:
        law = check_psi_law(psi, cfg.probes)
        if not law.passed:
            raise PreconditionError(
                f"psi scaling law fails on the probe set (margin {law.law_margin:.3e})"
            )

    X, Z = cfg.probes.x, cfg.probes.z
    weights = RhoTildeWeight(psi=psi, kind=weight_kind).values(X, Z)

    v_origin = table[0]  # the unscaled map, reference for bound/telescoping
    hyers_vals = hyers_bound(psi, X, Z)

    telescope = None
    if telescoping:
        telescope = _Telescope(
            _auto_telescope_form(cfg.direction, weight_kind), psi, X, Z, kappa, hyers_vals
        )

    levels = []
    for n in range(1, cfg.n_max + 1):
        diff_rho = _level_rho(table, rho_fn, n)
        sup_delta = float(np.max(diff_rho))
        rt_delta = rho_tilde_tabulated(diff_rho, weights)
        tel_kappa = tel_final = None
        if telescope is not None:
            defect = rho_fn(table[n] - v_origin)
            tel_kappa = float(np.max(defect - telescope.majorant(n)))
            tel_final = float(np.max(defect - telescope.final))
        levels.append(LevelDiag(n, sup_delta, rt_delta, tel_kappa, tel_final))
        if sup_delta < cfg.tol:
            break

    # n_max >= 1, so the loop ran: it froze at its last level
    frozen, converged = len(levels), sup_delta < cfg.tol
    rt_deltas = [lv.rho_tilde_delta for lv in levels]
    bound_margin = float(np.max(rho_fn(table[frozen] - v_origin) - hyers_vals))
    contraction = estimate_contraction(rt_deltas) if len(rt_deltas) >= 3 else 0.0
    return StabilizeOutcome(
        D=iterate_evaluator(d, cfg.direction, frozen),
        N_converged=frozen,
        converged=converged,
        contraction_estimate=contraction,
        bound_margin=bound_margin,
        levels=levels,
        weights=weights,
    )


# check_uniqueness reads the reruns from start levels 1..3 off the run's deltas
UNIQUENESS_START_LEVELS = 3


@dataclass(frozen=True)
class UniquenessReport:
    max_disagreement: float
    passed: bool
    variants: tuple


def check_uniqueness(outcome, rho_fn, table):
    """Reruns of the extraction from start levels 1..3 and with level caps
    n_max -/+ 5 must freeze at limits that agree with the run's on the probes.

    ``outcome`` is ``stabilize``'s result on ``table`` with ``rho_fn``, and
    cfg is ``table.cfg``.  A rerun walks the same levels, so it is read off
    the outcome's deltas d_n = max rho(T[n] - T[n-1]), the levels'
    ``sup_rho_delta``, not run: from level s with cap m it freezes at the
    first n in (s, m] with d_n < cfg.tol, else at max(s, m), or at the last
    level below the magnitude cap.  Deltas past the run's stop are computed
    from the table, for the levels a rerun reads.
    """
    cfg = table.cfg
    deltas = [lv.sup_rho_delta for lv in outcome.levels]  # deltas[n - 1] = d_n

    def freeze(start, cap):  # (level, values) of a rerun's limit
        try:
            for n in range(start + 1, cap + 1):
                while len(deltas) < n:  # past the run's stop
                    deltas.append(float(np.max(_level_rho(table, rho_fn, len(deltas) + 1))))
                if deltas[n - 1] < cfg.tol:
                    return n, table[n]
            return max(start, cap), table[max(start, cap)]
        except OverflowAbort as e:
            return e.level - 1, table[e.level - 1]

    base_vals = table[outcome.N_converged]
    runs = [(f"start={s}", s, cfg.n_max) for s in range(1, UNIQUENESS_START_LEVELS + 1)]
    runs += [(f"n_max={m}", 0, m) for m in (max(1, cfg.n_max - 5), cfg.n_max + 5)]
    variants = []
    for tag, start, cap in runs:
        n, vals = freeze(start, cap)
        variants.append((tag, n, float(np.max(rho_fn(vals - base_vals)))))
    worst = max(0.0, *(gap for _, _, gap in variants))
    return UniquenessReport(
        max_disagreement=worst, passed=worst <= 10.0 * cfg.tol, variants=tuple(variants)
    )


def bounded_orbit_estimate(iterates, weights, rho_fn, weight_tol=1e-15, defect_tol=1e-12):
    """Probe estimate of sup over level pairs of the induced-modular
    distance between iterates; finite orbits are what licence the
    fixed-point extraction.

    The result is max over level pairs (i, j) and probes p of
    rho(T_i - T_j)[p] / w[p] over the probes with weight above
    ``weight_tol``, or +inf when a probe at or below it carries a value
    above ``defect_tol``.  It keeps one running maximum of rho per probe
    over all pairs (one modular call per level i, over every later level
    j) and divides it by the weights once: correctly rounded division by
    a positive weight is monotone, so max fl(v / w) = fl(max v / w) and
    the result has the bits of the ratios taken pair by pair.  Those ratios
    are maximised level by level through Python's ``max``, which passes
    over a NaN: a NaN value counts for nothing in the defect test, and a
    level whose weighted ratios include a NaN (a NaN value, or inf over an
    infinite weight) adds nothing to the maximum.  Finite weights and
    iterates give no NaN ratio; an overflowing difference gives +inf.
    """
    iterates = np.asarray(iterates)
    active = weights > weight_tol
    peak = np.zeros(len(weights))
    for i in range(len(iterates) - 1):
        diffs = iterates[i] - iterates[i + 1:]
        m, n, k = diffs.shape  # explicit: -1 cannot be inferred at value_dim 0
        vals = rho_fn(diffs.reshape(m * n, k)).reshape(m, n)
        top = vals.max(axis=0)
        if not np.isfinite(top).all():  # a NaN or inf value: is some ratio NaN?
            nan_ratio = np.isnan(top) | np.isinf(top) & np.isinf(weights)
            top = np.fmax.reduce(vals, axis=0)
            if np.any(active & nan_ratio):
                top[active] = 0.0
        np.fmax(peak, top, out=peak)
    if np.any(~active & (peak > defect_tol)):
        return float("inf")
    if not np.any(active):
        return 0.0
    return float(np.max(peak[active] / weights[active]))
