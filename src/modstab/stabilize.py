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
    _scaled_levels,
    rho_tilde_tabulated,
    tilde_weights,
)
from .errors import (
    ConfigError,
    ModstabError,
    NonFiniteValueError,
    OverflowAbort,
    PreconditionError,
)
from .report import CheckResult
from .theorem import SIGN, THEOREMS


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
    bound_margin: float = float("nan")
    levels: list = field(default_factory=list)
    weights: np.ndarray | None = None


def hyers_bound(psi, x, z):
    """psi(x,x) psi(z,0) / (2 (1 - L)): the a-priori distance between the
    perturbed map and its extracted bi-additive limit."""
    x = np.asarray(x, dtype=np.complex128)
    zero = np.zeros_like(np.asarray(z, dtype=np.complex128))
    return psi(x, x) * psi(z, zero) / (2.0 * (1.0 - psi.L))


# a pass over stacked levels meets numpy's floating-point events as errors,
# and is given up on them as on any arithmetic or package error; its levels
# are then redone one at a time, under the caller's error state
_RAISE = {"over": "raise", "invalid": "raise", "divide": "raise"}
_LEVEL_ERRORS = (ArithmeticError, ModstabError)


def _attempt(stacked_pass, *args):
    """``stacked_pass(*args)`` under ``_RAISE``, or None when it raises one
    of ``_LEVEL_ERRORS``: the one rule by which a pass is given up."""
    try:
        with np.errstate(**_RAISE):
            return stacked_pass(*args)
    except _LEVEL_ERRORS:
        return None


class LevelTable:
    """The scaled iterates J^n d of the map ``d`` on the probes of ``cfg``,
    each level evaluated once: the one input of a run's iteration, whose
    readers take the map, the probes, the direction, the level cap n_max,
    the tolerance and the magnitude cap from it.

    ``table[n]`` is level n, read-only; ``table.span(first, last)`` yields
    (level, stack) pairs that cover levels first..last, one read-only stack
    per block; ``sign`` is the direction's ``theorem.SIGN``.  ``below_cap``
    is the last level whose scaled probes 2^n x stay within the magnitude
    cap, fixed by max |x| (-1 when level 0 passes it, +inf for descending
    iterates, which have no cap).

    Level n lives in block n // k, k = ``_kernels._items_per_block(P)``,
    and blocks are cut after level min(n_max, below_cap).  The first read
    of a level tabulates its block from one map call on the stacked scaled
    probes, 2^n x (or x / 2^n) with z tiled, scaled back row by row; a
    row's value does not depend on its batch, so every level has the bits
    of its own call, whatever the order of reads.  A one-level block, a
    level past the blocks, and each level of a block that ``_attempt``
    gives up or that holds a non-finite value are tabulated alone when
    read, under the caller's error state: past ``below_cap`` a level raises
    ``OverflowAbort`` without a map call, and a non-finite value
    ``NonFiniteValueError``, each naming the level and a probe.
    """

    def __init__(self, d, cfg):
        self.d = d
        self.cfg = cfg
        x = cfg.probes.x
        self.sign = SIGN[cfg.direction]
        self.below_cap = math.inf
        if self.sign > 0:
            top = float(np.abs(x).max()) if x.size else 0.0
            # no run reads a level past MAX_N_MAX + 5, and 2.0**n overflows at 1024
            self.below_cap = next(
                (n - 1 for n in range(1024) if 2.0**n * top > cfg.magnitude_cap), math.inf)
        self._per_block = _kernels._items_per_block(len(x))
        self._last = min(cfg.n_max, self.below_cap)  # the last level in a block
        self._stacks = {}  # first level -> its read-only stack: a block, or a level alone
        self._failed = set()  # indices of the blocks given up

    def __getitem__(self, level):
        stack, row = self._find(level)
        return stack[row]

    def span(self, first, last):
        """(level, stack) for the levels first..last in order: each stack
        a read-only (k, P, dim) array of levels level..level+k-1 of
        one block, k >= 1."""
        while first <= last:
            stack, row = self._find(first)
            part = stack[row:row + last - first + 1]
            yield first, part
            first += len(part)

    def _find(self, level):
        """(stack, row) of ``level``, its block's or its own, tabulated on
        the level's first read."""
        b, row = divmod(level, self._per_block)
        first = level - row
        stop = min(first + self._per_block, self._last + 1)
        if level < stop and stop - first > 1 and b not in self._failed:
            if first not in self._stacks:
                stack = _attempt(self._stacked, first, stop)
                if stack is None or not np.isfinite(stack).all():
                    self._failed.add(b)
                    return self._find(level)  # now alone
                self._stacks[first] = stack
            return self._stacks[first], row
        if level not in self._stacks:
            if level > self.below_cap:
                raise OverflowAbort(
                    f"2^{level} scaling exceeds the magnitude cap {self.cfg.magnitude_cap:g}",
                    level=level, probe_id=int(np.argmax(np.abs(self.cfg.probes.x).max(axis=1))),
                )
            stack = self._stacked(level, level + 1)
            finite = np.isfinite(stack[0]).all(axis=1)
            if not finite.all():
                raise NonFiniteValueError(f"non-finite iterate value at level {level}",
                                          probe_id=int(np.argmax(~finite)), level=level)
            self._stacks[level] = stack
        return self._stacks[level], 0

    def _stacked(self, start, stop):
        """Levels start..stop-1, read-only, from one map call on the stacked
        scaled probes."""
        probes = self.cfg.probes
        stack = _scaled_levels(self.d, self.sign, range(start, stop), probes.x, probes.z)
        stack.flags.writeable = False
        return stack


def stabilize(table, psi, rho_fn, theorem=None):
    """Run the scaled iteration on ``table`` and freeze the limit candidate.

    The map d and its StabilizeConfig cfg are ``table.d`` and ``table.cfg``.
    rho_fn maps an (n, dim) batch to its (n,) modular values.
    Stops when the probe-sup modular distance delta_n between successive
    candidates is at most cfg.tol (convergence: delta_n <= tol, the pass
    rule of the run's ``stabilize`` record) or at cfg.n_max.  Each
    level's ``rho_tilde_delta`` is the probe-restricted function-space
    modular of the successive difference, weighted by ``theorem``'s
    substitution (``bimaps.tilde_weights``; None takes inequality A's); the
    stopping rule deliberately uses the plain probe-sup ``sup_rho_delta`` so
    zero-weight boundary probes cannot produce 0/0.  A run iterates once:
    ``check_uniqueness`` reads its reruns off the outcome's levels.  Every
    ``BiMap`` vanishes on the axes, and psi and the theorem must scale in
    cfg's direction; psi's scaling law is checked once per run, by the
    ``psi_law`` stage before it iterates.

    The levels are walked a table block at a time: one modular call gives
    the deltas of the whole block and rho-tilde of its levels up to the
    first that converges, each with the bits the level gets alone.  A block
    pass that ``_attempt`` gives up is walked again one level at a time
    under the caller's error state, so a run raises what it raised level
    by level, at the same level.
    """
    d, cfg = table.d, table.cfg
    theorem = theorem or THEOREMS[cfg.direction, "A"]
    if not psi.direction == cfg.direction == theorem.direction:
        raise PreconditionError("psi, the iteration and the theorem disagree on the direction")

    X, Z = cfg.probes.x, cfg.probes.z
    weights = tilde_weights(psi, theorem, X, Z)

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

    levels, prev = [], v_origin
    for first, block in table.span(1, cfg.n_max):
        diags = _attempt(walk, block, first, prev) if len(block) > 1 else None
        if diags is None:  # the levels alone, under the caller's error state
            diags = []
            for row in range(len(block)):
                diags += walk(block[row:row + 1], first + row, block[row - 1] if row else prev)
                if diags[-1].sup_rho_delta <= cfg.tol:
                    break
        levels += diags
        prev = block[len(diags) - 1]
        if levels[-1].sup_rho_delta <= cfg.tol:
            break

    # n_max >= 1, so the loop ran: it froze at its last level
    frozen, converged = len(levels), levels[-1].sup_rho_delta <= cfg.tol
    bound_margin = float(np.max(rho_fn(table[frozen] - v_origin) - hyers_vals))
    return StabilizeOutcome(
        D=lambda x, z: _scaled_levels(d, table.sign, [frozen], x, z)[0],
        N_converged=frozen,
        converged=converged,
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
    ``sup_rho_delta``, not run.  From level s with cap m it reads no level
    past c = min(m, ``table.below_cap``): it freezes at the first n in
    (s, c] with d_n <= cfg.tol, else at min(max(s, m), below_cap).  Deltas
    past the run's stop are computed from the table, for the levels a
    rerun reads, and a non-finite one aborts as the iteration does.

    One row: the largest disagreement against 0 and cfg.limit_tol; its payload
    is ``max_disagreement`` and the ``variants``, one [tag, level,
    disagreement] per rerun.
    """
    cfg = table.cfg
    deltas = [lv.sup_rho_delta for lv in outcome.levels]  # deltas[n - 1] = d_n

    def freeze(start, cap):  # (level, values) of a rerun's limit
        for n in range(start + 1, min(cap, table.below_cap) + 1):
            while len(deltas) < n:  # past the run's stop
                m = len(deltas) + 1
                diff_rho = rho_fn(table[m] - table[m - 1])
                if not np.isfinite(diff_rho).all():
                    raise NonFiniteValueError("non-finite modular value", level=m)
                deltas.append(float(np.max(diff_rho)))
            if deltas[n - 1] <= cfg.tol:
                return n, table[n]
        n = min(max(start, cap), table.below_cap)
        return n, table[n]

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
    n, dim = base.shape
    buf = np.empty((min(_kernels._items_per_block(n), len(later)), n, dim), dtype=dtype)
    for b in _kernels.row_blocks(len(later), n):
        m = b.stop - b.start
        for r, j in enumerate(later[b]):
            np.subtract(base, iterates[j][rows], out=buf[r])
        if factor != 1.0:
            buf[:m] *= factor
        yield rho_fn(buf[:m].reshape(m * n, dim)).reshape(m, n)


def bounded_orbit_estimate(iterates, weights, rho_fn):
    """Probe estimate of sup over level pairs of the induced-modular
    distance between iterates; finite orbits are what licence the
    fixed-point extraction.

    ``iterates`` is a sequence of (P, dim) levels T_0..T_L, read as
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
    r = (s_i + max_{j>i} s_j) (1 + 2^-20) + dim 2^-46 is not finite,
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
    With u = 2^-53 and k = dim: a difference is rounded part by
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
