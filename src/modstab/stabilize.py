"""Direct-method engine: iterate the scaled map until the probe-sup
modular distance between successive candidates is at most the tolerance,
and freeze the bi-additive limit.  The checks on the iterates (uniqueness
and the bounded orbit here, the rest in ``verify``) read the run's table."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .bimaps import (
    DEFECT_FLOOR,
    DIRECTIONS,
    WEIGHT_FLOOR,
    ProbeSet,
    RhoTildeWeight,
    check_psi_law,
    iterate_evaluator,
    rho_tilde_tabulated,
)
from .errors import (
    ConfigError,
    ModstabError,
    NonFiniteValueError,
    OverflowAbort,
    PreconditionError,
)
from .report import CheckResult


# the largest level cap n_max a run accepts: 2.0**n overflows a float from
# n = 1024 on, and the uniqueness check reads levels up to n_max + 5
MAX_N_MAX = 1000


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
        if not 1 <= self.n_max <= MAX_N_MAX:
            raise ConfigError(f"n_max must be between 1 and {MAX_N_MAX}, got {self.n_max}")
        for name in ("tol", "magnitude_cap"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")

    @property
    def limit_tol(self):
        """The tolerance of the checks on the limit the iteration froze."""
        return 10.0 * self.tol


@dataclass(frozen=True)
class LevelDiag:
    level: int
    sup_rho_delta: float
    rho_tilde_delta: float


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


# numpy's floating-point events raise (FloatingPointError) inside a stacked
# pass, so that a pass which meets one is given up and its levels are redone
# one at a time, under the caller's own error state; so is a pass that meets
# any other arithmetic error or one of the package's own errors
_RAISE = {"over": "raise", "invalid": "raise", "divide": "raise"}
_LEVEL_ERRORS = (ArithmeticError, ModstabError)


class LevelTable:
    """The scaled iterates J^n d of the map ``d`` on the probes of ``cfg``,
    each level evaluated once: the one input of a run's iteration.

    ``stabilize``, ``check_uniqueness``, ``calibrate_theta`` and the checks
    on the iterates take the table and read the map, the probes, the
    direction, the level cap n_max, the tolerance and the magnitude cap
    from it.  ``table[n]`` returns level n as a read-only array;
    ``table.block(n)`` returns level n and the levels after it in its
    block, stacked.

    Levels 0..n_max are tabulated in blocks of consecutive levels, each
    spanning at most ``_kernels.BLOCK_ROWS`` rows (4 levels at 512 probes,
    all 41 at 32), from one map call on the stacked scaled probes:
    2^n x (or x / 2^n) with z tiled, the value scaled back row by row.  A
    row's value does not depend on its batch, so every level has the bits
    of its own call.  The first read of a level tabulates the block that
    starts there; nothing past that block, past n_max or past the magnitude
    cap is evaluated (for ascending iterates the cap is known in advance
    from max |x|).  A level past n_max is tabulated alone.

    A block whose map call raises an arithmetic or package error, meets a
    floating-point overflow, invalid value or division by zero, or yields a
    non-finite value is given up, and each of its levels is tabulated alone
    when it is read: a level then raises the same ``OverflowAbort`` or
    ``NonFiniteValueError`` (level, probe_id and message) as it did alone,
    and only when it is read, so a run that converges before a bad level
    does not raise.
    Calibration reads levels up to n_max before the iteration runs and
    stops at a magnitude-cap abort, so a run still aborts at the same level
    and probe as it would without the table.
    """

    def __init__(self, d, cfg):
        self.d = d
        self.cfg = cfg
        x = cfg.probes.x
        self._max_abs_x = float(np.abs(x).max()) if x.size else 0.0
        self._levels = {}  # level -> its read-only row of a block
        self._blocks = {}  # level -> (block, row)
        self._per_block = _kernels._items_per_block(len(x))
        # blocks end at n_max and below the first level over the cap
        self._end = cfg.n_max + 1
        if cfg.direction == "ascending":
            self._end = next(
                (n for n in range(self._end) if 2.0**n * self._max_abs_x > cfg.magnitude_cap),
                self._end,
            )
        self._single_until = 0  # levels below it are tabulated alone

    def __getitem__(self, level):
        if level not in self._levels:
            self._fill(level)
        return self._levels[level]

    def block(self, level):
        """Level ``level`` and the tabulated levels after it in its block,
        as a read-only (k, P, value_dim) array with k >= 1."""
        if level not in self._levels:
            self._fill(level)
        stack, row = self._blocks[level]
        return stack[row:]

    def _fill(self, start):
        stop = min(start + self._per_block, self._end)
        stop = next((n for n in range(start + 1, stop) if n in self._levels), stop)
        stack = None
        if start >= self._single_until and stop - start > 1:
            stack = self._stacked(start, stop)
            if stack is None:
                self._single_until = stop
        if stack is None:
            stack = _tabulate(self.d, self.cfg, start, self._max_abs_x)[None]
        stack.flags.writeable = False
        for row in range(len(stack)):
            self._levels[start + row] = stack[row]
            self._blocks[start + row] = (stack, row)

    def _stacked(self, start, stop):
        """Levels start..stop-1 from one map call, or None when the block
        is given up."""
        X, Z = self.cfg.probes.x, self.cfg.probes.z
        k, (n, dim) = stop - start, X.shape
        s = np.array([2.0**level for level in range(start, stop)])[:, None, None]
        try:
            with np.errstate(**_RAISE):
                if self.cfg.direction == "ascending":
                    vals = self.d((s * X).reshape(k * n, dim), np.tile(Z, (k, 1)))
                    vals = vals.reshape(k, n, vals.shape[1]) / s
                else:
                    vals = self.d((X / s).reshape(k * n, dim), np.tile(Z, (k, 1)))
                    vals = s * vals.reshape(k, n, vals.shape[1])
        except _LEVEL_ERRORS:  # met again by the levels alone
            return None
        return vals if np.isfinite(vals).all() else None


def _level_rho(table, rho_fn, n):
    """Per-probe rho(T[n] - T[n-1]), aborting on a non-finite value."""
    diff_rho = rho_fn(table[n] - table[n - 1])
    if not np.isfinite(diff_rho).all():
        raise NonFiniteValueError("non-finite modular value", level=n)
    return diff_rho


def stabilize(table, psi, rho_fn, weight_kind="psi_xx_z0", skip_psi_check=False):
    """Run the scaled iteration on ``table`` and freeze the limit candidate.

    The map d and its StabilizeConfig cfg are ``table.d`` and ``table.cfg``.
    rho_fn maps an (n, value_dim) batch to its (n,) modular values.
    Stops when the probe-sup modular distance delta_n between successive
    candidates is at most cfg.tol (convergence: delta_n <= tol, the pass
    rule of the run's ``stabilize`` record) or at cfg.n_max.  Each
    level's ``rho_tilde_delta`` is the probe-restricted function-space
    modular of the successive difference; the stopping rule deliberately
    uses the plain probe-sup ``sup_rho_delta`` so zero-weight boundary
    probes cannot produce 0/0.  A run iterates once: ``check_uniqueness``
    reads its reruns off the outcome's levels.

    The levels are walked a table block at a time: one modular call gives
    the deltas of the whole block and rho-tilde of its levels up to the
    first that converges, each with the bits the level gets alone.  A block
    pass that raises an arithmetic or package error, numpy's floating-point
    events among them, is given up, and the rest of its block is walked one
    level at a time under the caller's error state, so a run raises what it
    raised level by level, at the same level.
    """
    d, cfg = table.d, table.cfg
    if not getattr(d, "zero_boundary", True):
        raise PreconditionError("the map must vanish on the axes (zero_boundary)")
    if psi.direction != cfg.direction:
        raise PreconditionError("psi scaling direction disagrees with the iteration direction")
    if not skip_psi_check:
        law = check_psi_law(psi, cfg.probes)
        if law.n_failed:
            margin = law[0].payload["law_margin"]
            raise PreconditionError(f"psi scaling law fails on the probe set (margin {margin:.3e})")

    X, Z = cfg.probes.x, cfg.probes.z
    weights = RhoTildeWeight(psi=psi, kind=weight_kind).values(X, Z)

    v_origin = table[0]  # the unscaled map, reference for the bound
    hyers_vals = hyers_bound(psi, X, Z)

    def walk(block, first, prev):
        """LevelDiags of the levels first, first + 1, .. of ``block`` up to
        the first that converges.  Each level's steps go in the order of
        the per-level loop, so a one-level block raises what that level
        raised."""
        k, n_probes, vd = block.shape
        diffs = np.empty_like(block)
        np.subtract(block[0], prev, out=diffs[0])
        np.subtract(block[1:], block[:-1], out=diffs[1:])
        diff_rho = rho_fn(diffs.reshape(k * n_probes, vd)).reshape(k, n_probes)
        finite = np.isfinite(diff_rho).all(axis=1)
        sup = np.full(k, np.inf)
        sup[finite] = diff_rho[finite].max(axis=1)
        stop = (sup <= cfg.tol) | ~finite
        if stop.any():
            k = int(np.argmax(stop)) + 1
            if not finite[k - 1]:
                raise NonFiniteValueError("non-finite modular value", level=first + k - 1)
        rt = rho_tilde_tabulated(diff_rho[:k], weights)
        rows = zip(range(first, first + k), sup[:k].tolist(), rt.tolist())
        return [LevelDiag(*row) for row in rows]

    levels, prev, single_until = [], v_origin, 0
    while True:
        first = len(levels) + 1
        block = table.block(first)[: cfg.n_max - first + 1]
        diags = None
        if first >= single_until and len(block) > 1:
            try:
                with np.errstate(**_RAISE):
                    diags = walk(block, first, prev)
            except _LEVEL_ERRORS:  # met again by the levels alone
                single_until = first + len(block)
        if diags is None:
            diags = walk(block[:1], first, prev)
        levels += diags
        prev = block[len(diags) - 1]
        if levels[-1].sup_rho_delta <= cfg.tol or len(levels) == cfg.n_max:
            break

    # n_max >= 1, so the loop ran: it froze at its last level
    frozen, converged = len(levels), levels[-1].sup_rho_delta <= cfg.tol
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


def check_uniqueness(outcome, rho_fn, table):
    """Reruns of the extraction from start levels 1..3 and with level caps
    n_max -/+ 5 must freeze at limits that agree with the run's on the probes.

    ``outcome`` is ``stabilize``'s result on ``table`` with ``rho_fn``, and
    cfg is ``table.cfg``.  A rerun walks the same levels, so it is read off
    the outcome's deltas d_n = max rho(T[n] - T[n-1]), the levels'
    ``sup_rho_delta``, not run: from level s with cap m it freezes at the
    first n in (s, m] with d_n <= cfg.tol, else at max(s, m), or at the last
    level below the magnitude cap.  Deltas past the run's stop are computed
    from the table, for the levels a rerun reads.

    One row: the largest disagreement against 0 and cfg.limit_tol; its payload
    is ``max_disagreement`` and the ``variants``, one [tag, level,
    disagreement] per rerun.
    """
    cfg = table.cfg
    deltas = [lv.sup_rho_delta for lv in outcome.levels]  # deltas[n - 1] = d_n

    def freeze(start, cap):  # (level, values) of a rerun's limit
        try:
            for n in range(start + 1, cap + 1):
                while len(deltas) < n:  # past the run's stop
                    deltas.append(float(np.max(_level_rho(table, rho_fn, len(deltas) + 1))))
                if deltas[n - 1] <= cfg.tol:
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
        variants.append([tag, n, float(np.max(rho_fn(vals - base_vals)))])
    worst = max(0.0, *(gap for _, _, gap in variants))
    return CheckResult.one("uniqueness", worst, 0.0, cfg.limit_tol,
                           {"max_disagreement": worst, "variants": variants})


# bounded_orbit_estimate widens a level's bound by these before it skips the
# level at a probe: a relative part, and an absolute part per value column;
# its docstring derives them
_ORBIT_GUARD_REL = 2.0**-20
_ORBIT_GUARD_ABS = 2.0**-46


def _rho_differences(iterates, first, later, rows, rho_fn, dtype, factor=1.0):
    """rho(factor * (T_first - T_j)) at the probes ``rows`` (a slice or an
    index array) for each level j of the range ``later``, yielded as one
    (m, n) array per ``_kernels.row_blocks`` chunk of the levels.  Every
    chunk is differenced into the same buffer and takes one modular call."""
    base = iterates[first][rows]
    n, value_dim = base.shape
    buf = np.empty((min(_kernels._items_per_block(n), len(later)), n, value_dim), dtype=dtype)
    for b in _kernels.row_blocks(len(later), n):
        m = b.stop - b.start
        for r, j in enumerate(later[b]):
            np.subtract(base, iterates[j][rows], out=buf[r])
        if factor != 1.0:
            buf[:m] *= factor
        # explicit: -1 cannot be inferred at value_dim 0
        yield rho_fn(buf[:m].reshape(m * n, value_dim)).reshape(m, n)


def bounded_orbit_estimate(iterates, weights, rho_fn):
    """Probe estimate of sup over level pairs of the induced-modular
    distance between iterates; finite orbits are what licence the
    fixed-point extraction.

    ``iterates`` is a sequence of (P, value_dim) levels T_0..T_L, read as
    given.  The result is max over level pairs (i, j) and probes p of
    rho(T_i - T_j)[p] / w[p] over the probes with weight above
    ``bimaps.WEIGHT_FLOOR``, or +inf when a probe at or below it carries a
    value above ``bimaps.DEFECT_FLOOR``.  Level i's pairs are (i, j), j > i.
    Its ratios are maximised as Python's ``max`` does, passing over a NaN:
    a level whose weighted ratios include a NaN (a NaN value, or inf over
    an infinite weight) adds nothing, and a NaN value counts for nothing
    in the defect test.  Finite weights and iterates give no NaN ratio; an
    overflowing difference gives +inf.  Correctly rounded division by a
    positive weight is monotone, so a level's largest ratio at a probe is
    fl(max v / w) over its values v there.

    The sweep is pruned, yet exact.  Let s_k = rho(2 (T_L - T_k)), s_L = 0.
    As T_i - T_j = 1/2 * 2 (T_i - T_L) + 1/2 * 2 (T_L - T_j), the modular's
    axioms (ii) and (iii) give rho(T_i - T_j) <= s_i + s_j.  One pass
    computes s, L rows per probe.  The levels are then evaluated in
    ascending order, level i only at the probes where its bound
    r = (s_i + max_{j>i} s_j) (1 + 2^-20) + value_dim 2^-46 is not finite,
    or is above DEFECT_FLOOR at a zero-weight probe, or has r / w[p] above
    the largest ratio ``best`` of the levels before it at a weighted probe
    (so level 0 is evaluated at every weighted probe with r > 0).  A
    skipped value is at most r, so its ratio is at most ``best``, which the
    result reaches, and it is no defect.  It is finite, so it is no NaN
    ratio either: a NaN or inf entry in T_i, T_j or T_L makes an s NaN or
    inf.  The result therefore has the bits of the sweep over all pairs.
    Once ``best`` is +inf the result is +inf, and nothing more is
    evaluated; the first value above DEFECT_FLOOR at a zero-weight probe
    returns +inf at once.  The s pass and each level difference their
    probes against the later levels in ``_kernels.row_blocks`` chunks (one
    level when the probes are wider), into one buffer per pass, one
    modular call per chunk.  The s pass and the bounds run with numpy's
    floating-point warnings off, as they decide no value.

    The guard keeps r above the computed value of every pair it covers.
    With u = 2^-53 and k = value_dim: a difference is rounded part by
    part, so |fl(a - b)| <= (1 + u)|a - b| and |a - b| <= (1 + 2u)|fl(a - b)|
    entrywise, and doubling is exact.  The chain from a pair's value to r
    thus meets rho(c y) against rho(y) for 1 <= c <= 1 + 2u, three kernel
    roundings (the pair and two s) and three roundings of r.  Every kind
    here sums a function of |y_m| that grows with it.  Per kind:

    - norm: 1-homogeneous; ``rho_norm`` is within (k + 4)u (2k squares,
      their sum, a square root, and the rescaling of a row whose sum
      leaves the float range).  In all, under (2k + 14)u.
    - power p, orlicz ``linear`` (p = 1) and ``square`` (p = 2):
      p-homogeneous, so rho(c y) <= (1 + 2u)^p rho(y).  |y_m| is within an
      ulp, so its p-th power is within (1 + u)^(p + 1), and the sum within
      (k - 1)u.  In all, under (5p + 2k + 3)u, below 2^-20 for p up to
      2^30.  A term that underflows is off by at most 2^-1074.
    - orlicz ``exp_minus_one``: expm1(c t) <= c e^((c - 1) t) expm1(t), and
      a finite value has t < 710, so c = 1 + 2u costs at most 1422u, and
      the kernel's rounding of |y_m| 711u.  In all, under (3600 + 2k)u.
    - orlicz ``dead_zone``, phi(t) = max(t - 1, 0): not homogeneous, and at
      its kink |t| = 1 the error is absolute, not relative.  For
      c = 1 + d, phi(c t) - phi(t) <= d t, which is at most 2 d phi(t) for
      t >= 2 and below 2d under it, so phi(c t) <= (1 + 2d) phi(t) + 2d.
      t - 1 is exact for t in [1/2, 2] (Sterbenz) and rounded relatively
      above.  The absolute parts add up to at most 16ku, an eighth of
      k 2^-46; the relative ones stay under (2k + 14)u.  Two levels half
      a unit either side of T_L can have s_i = s_j = 0 and a pair value of
      2^-52: without the absolute part that pair would be skipped.

    So the relative part 2^-20 covers every kind with room to spare, and
    the absolute part covers the kink; a value that overflows has an r
    that overflows too.  Every kind here is also convex, which halves the
    bound, rho(T_i - T_j) <= (s_i + s_j) / 2; the guard does not lean on it.
    """
    n_levels, n_probes = len(iterates), len(weights)
    active = weights > WEIGHT_FLOOR
    last, best = n_levels - 1, 0.0
    if last > 0:
        dtype = np.result_type(*iterates)
        with np.errstate(all="ignore"):
            s = np.concatenate(list(
                _rho_differences(iterates, last, range(last), slice(None), rho_fn, dtype, 2.0)))
            reach = np.zeros_like(s)  # max of s_j over j > i (s_L = 0); a NaN wins
            reach[:-1] = np.maximum.accumulate(s[:0:-1])[::-1]
            reach += s
            reach *= 1.0 + _ORBIT_GUARD_REL
            reach += np.shape(iterates[0])[1] * _ORBIT_GUARD_ABS
            # level i skips probe p while best >= bar[i, p]
            bar = np.where(active, reach / weights, np.where(reach <= DEFECT_FLOOR, -np.inf, np.inf))
        bar[~np.isfinite(reach)] = np.inf
    for i in range(last):
        picked = np.flatnonzero(bar[i] > best)
        if not len(picked):
            continue
        rows = slice(None) if len(picked) == n_probes else picked
        weighted = active[rows]
        top = None  # max over the level's pairs at its weighted probes: a NaN wins
        for vals in _rho_differences(iterates, i, range(i + 1, n_levels), rows, rho_fn, dtype):
            if np.any(vals[:, ~weighted] > DEFECT_FLOOR):
                return float("inf")
            chunk_top = vals[:, weighted].max(axis=0)
            top = chunk_top if top is None else np.maximum(top, chunk_top)
        w = weights[rows][weighted]
        if top.size and not np.any(np.isnan(top) | np.isinf(top) & np.isinf(w)):
            best = max(best, float(np.max(top / w)))
    return best
