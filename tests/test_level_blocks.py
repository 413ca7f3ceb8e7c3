"""The level table and the iteration walk the scaled orbit in blocks of
levels; the per-level walk they replaced is kept here as the reference.

``RefTable`` evaluates one level per map call, ``stabilize_ref`` is the
per-level loop with the ``_Telescope`` majorants of its levels, and
``scaled_family_ref`` yields calibration's scaled degenerate family one
level at a time.  Blocks must give the same LevelDiag values and the one
pass of ``check_telescoping`` the same margins, bit for bit (compared
through ``repr``, which tells -0.0 from 0.0), the same table values, and
the same exception type, message, level and probe_id, at probe counts
that put the block edges at different levels: 17 (120 levels per block),
32 (64), 512 (4), 700 (2) and 2049 (1).
"""

import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from modstab import (
    BiMap,
    ConfigError,
    LevelTable,
    ModularSpec,
    NonFiniteValueError,
    OverflowAbort,
    Perturbation,
    PsiEnvelope,
    StabilizeConfig,
    draw_probes,
    eval_modular,
    preset,
    stabilize,
)
from modstab._kernels import BLOCK_ROWS
from modstab.bimaps import RhoTildeWeight, iterate_evaluator, rho_tilde_tabulated
from modstab.modular import coeff_norm_fn
from modstab.scenarios import _scaled_degenerate_family
from modstab.stabilize import MAX_N_MAX, LevelDiag, estimate_contraction, hyers_bound
from modstab.verify import _auto_telescope_form, _majorant_terms, _majorants, check_telescoping

MATRIX2 = preset("matrix2")
NORM = ModularSpec(kind="norm")
COUNTS = [17, 32, 512, 700, 2049]
FORMS = [("ascending", "psi_xx_z0"), ("descending", "psi_xx_z0"), ("descending", "psi_x0_z0")]


def rho_rows(rows):
    return eval_modular(NORM, np.atleast_2d(rows))


# --- the per-level reference ---------------------------------------------------


class RefTable:
    """One map call per level, each level evaluated when first read."""

    def __init__(self, d, cfg):
        self.d, self.cfg = d, cfg
        self.max_abs_x = float(np.abs(cfg.probes.x).max())
        self.levels = {}

    def __getitem__(self, level):
        if level not in self.levels:
            cfg, X = self.cfg, self.cfg.probes.x
            if cfg.direction == "ascending" and 2.0**level * self.max_abs_x > cfg.magnitude_cap:
                raise OverflowAbort(
                    f"2^{level} scaling exceeds the magnitude cap {cfg.magnitude_cap:g}",
                    level=level, probe_id=int(np.argmax(np.abs(X).max(axis=1))),
                )
            vals = iterate_evaluator(self.d, cfg.direction, level)(X, cfg.probes.z)
            if not np.isfinite(vals).all():
                bad = int(np.argmax(~np.isfinite(vals).all(axis=1)))
                raise NonFiniteValueError(
                    f"non-finite iterate value at level {level}", probe_id=bad, level=level
                )
            self.levels[level] = vals
        return self.levels[level]


class _Telescope:
    def __init__(self, form, psi, X, Z, kappa, final):
        self.form, self.psi, self.X, self.kappa, self.final = form, psi, X, kappa, final
        self.psi_z0 = psi(Z, np.zeros_like(Z))
        self._cum = np.zeros(X.shape[0])
        self._terms = {}

    def _term(self, i):
        if i not in self._terms:
            X, zero = self.X, np.zeros_like(self.X)
            if self.form == "ascending":
                u = 2.0 ** (i - 1) * X
                self._terms[i] = self.psi(u, u)
            elif self.form == "kappa_both_slots":
                u = X / (2.0 if i == 1 else 2.0**i)
                self._terms[i] = self.psi(u, u)
            else:
                s = 1.0 if i == 1 else 2.0 ** (i - 1)
                self._terms[i] = self.psi(X / s, zero)
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


def stabilize_ref(table, psi, rho_fn, weight_kind="psi_xx_z0", kappa=2.0):
    """The per-level loop; returns the fields stabilize's outcome carries
    and, beside them, the telescoping margins (kappa, final) of its levels,
    each level's defect and majorant taken alone."""
    cfg = table.cfg
    X, Z = cfg.probes.x, cfg.probes.z
    weights = RhoTildeWeight(psi=psi, kind=weight_kind).values(X, Z)
    v_origin = table[0]
    hyers_vals = hyers_bound(psi, X, Z)
    levels = []
    for n in range(1, cfg.n_max + 1):
        diff_rho = rho_fn(table[n] - table[n - 1])
        if not np.isfinite(diff_rho).all():
            raise NonFiniteValueError("non-finite modular value", level=n)
        sup_delta = float(np.max(diff_rho))
        rt_delta = rho_tilde_tabulated(diff_rho, weights)
        levels.append(LevelDiag(n, sup_delta, rt_delta))
        if sup_delta < cfg.tol:
            break
    frozen, converged = len(levels), sup_delta < cfg.tol
    rt_deltas = [lv.rho_tilde_delta for lv in levels]
    bound_margin = float(np.max(rho_fn(table[frozen] - v_origin) - hyers_vals))
    contraction = estimate_contraction(rt_deltas) if len(rt_deltas) >= 3 else 0.0
    margins = margins_ref(table, psi, rho_fn, frozen, weight_kind, kappa)
    return frozen, converged, contraction, bound_margin, levels, weights, margins


def margins_ref(table, psi, rho_fn, n, weight_kind="psi_xx_z0", kappa=2.0):
    """The telescoping margins (kappa, final) of levels 1..n, one level at
    a time."""
    X, Z = table.cfg.probes.x, table.cfg.probes.z
    form = "ascending" if table.cfg.direction == "ascending" else (
        "kappa_first_zero" if weight_kind == "psi_x0_z0" else "kappa_both_slots")
    telescope = _Telescope(form, psi, X, Z, kappa, hyers_bound(psi, X, Z))
    margins = []
    for level in range(1, n + 1):
        defect = rho_fn(table[level] - table[0])
        margins.append((float(np.max(defect - telescope.majorant(level))),
                        float(np.max(defect - telescope.final))))
    return margins


def scaled_family_ref(table, psi1, rho_fn, which):
    """Calibration's scaled degenerate family, one (need, unit) per level."""
    ascending = table.cfg.direction == "ascending"
    if ascending and which == "B":
        return
    x, z = table.cfg.probes.x, table.cfg.probes.z
    zeros = np.zeros_like(x)
    psi_z0 = psi1(z, zeros)
    for i in range(table.cfg.n_max):
        try:
            lo, hi = table[i], table[i + 1]
        except OverflowAbort:
            return
        if ascending:
            k, u = 2.0 ** (i + 2), 2.0**i * x
            yield rho_fn(k * hi - k * lo), psi1(u, u) * psi_z0
        elif which == "A":
            k, u = 2.0 ** (1 - i), x / 2.0 ** (i + 1)
            yield rho_fn(k * lo - k * hi), psi1(u, u) * psi_z0
        else:
            k, u = 2.0 ** (2 - i), x / 2.0**i
            yield rho_fn(k * hi - k * lo), psi1(u, zeros) * psi_z0


# --- helpers -------------------------------------------------------------------


def fixture(direction, count, seed=3, theta=0.01, **kw):
    """(map, envelope, config): a contracting orbit in either direction; an
    envelope amplitude below the perturbation's 0.01 makes the telescoping
    margins positive, so a probe other than the zero probe sets them."""
    probes = draw_probes(4, count, 1.0, seed)
    cfg = StabilizeConfig(direction=direction, probes=probes, **kw)
    if direction == "ascending":
        g = Perturbation("bounded_osc", 0.01, boundary_safe=True)
        psi = PsiEnvelope(theta=theta, p=0.5, direction="ascending")
    else:
        g = Perturbation("power_env", 0.01, p=2.0)
        psi = PsiEnvelope(theta=theta, p=2.0, direction="descending")
    return BiMap(algebra=MATRIX2, kernel="commutator", perturbation=g), psi, cfg


def outcome_fields(out):
    return (out.N_converged, out.converged, out.contraction_estimate, out.bound_margin,
            out.levels, out.weights)


def same(got, want):
    """Bit-for-bit equality of outcome fields (``stabilize_ref``'s margins
    aside), or of raised errors."""
    if isinstance(want, tuple) and len(want) == 7 and isinstance(want[4], list):
        *head, levels, weights, _ = want
        g_head, g_levels, g_weights = got[:4], got[4], got[5]
        assert repr(tuple(g_head)) == repr(tuple(head))
        assert repr([astuple(lv) for lv in g_levels]) == repr([astuple(lv) for lv in levels])
        assert g_weights.tobytes() == weights.tobytes()
    else:
        assert got == want


def same_margins(table, psi, margins, weight_kind="psi_xx_z0", kappa=2.0, rho_fn=rho_rows):
    """check_telescoping's rows on levels 1..len(margins) of ``table`` are
    the reference ``margins``, repr for repr, each row's lhs the larger."""
    result = check_telescoping(table, psi, rho_fn, len(margins), weight_kind, kappa)
    cols = result.columns
    assert cols["level"].tolist() == list(range(1, len(margins) + 1))
    got = list(zip(cols["kappa_margin"].tolist(), cols["final_margin"].tolist()))
    assert repr(got) == repr(margins)
    assert result.lhs.tobytes() == np.maximum(cols["kappa_margin"], cols["final_margin"]).tobytes()
    return result


def run(fn):
    """fn()'s value, or (type, message, level, probe_id) of what it raised."""
    try:
        return fn()
    except (NonFiniteValueError, OverflowAbort, RuntimeWarning) as e:
        return type(e), str(e), getattr(e, "level", None), getattr(e, "probe_id", None)


def warned(fn):
    """run(fn) with numpy's warnings shown, not raised, and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run(fn)
    return out, [(w.category, str(w.message)) for w in caught]


def table_blocks(table):
    return sorted({(level - row, len(stack)) for level, (stack, row) in table._blocks.items()})


def check_table_levels(table, ref):
    for level in sorted(table._levels):
        assert table[level].tobytes() == ref[level].tobytes(), level
        assert not table[level].flags.writeable


# --- the iteration -------------------------------------------------------------


@pytest.mark.parametrize("theta", [0.01, 0.0005])
@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("direction, weight_kind", FORMS)
def test_blocks_give_the_per_level_diagnostics(direction, weight_kind, count, theta):
    d, psi, cfg = fixture(direction, count, theta=theta)
    table, ref = LevelTable(d, cfg), RefTable(d, cfg)
    got = outcome_fields(stabilize(table, psi, rho_rows, weight_kind=weight_kind))
    want = stabilize_ref(ref, psi, rho_rows, weight_kind=weight_kind)
    same(got, want)
    same_margins(table, psi, want[6], weight_kind)
    if theta < 0.01:
        assert any(kappa > 0.0 for kappa, _ in want[6])
    n, per_block = got[0], max(1, BLOCK_ROWS // count)
    assert got[1] and n > 3  # converged
    check_table_levels(table, ref)
    # the run read blocks from level 0 and stopped inside the one holding N;
    # the telescoping check read no level past it
    end = min((n // per_block + 1) * per_block, cfg.n_max + 1)
    assert sorted(table._levels) == list(range(end))
    assert all(k * count <= max(BLOCK_ROWS, count) for _, k in table_blocks(table))


@pytest.mark.parametrize("count", [17, 512, 700])
@pytest.mark.parametrize("direction, weight_kind", FORMS)
def test_blocks_without_telescoping_and_with_other_caps(direction, weight_kind, count):
    # level caps and tolerances put the stop at a block edge, inside a
    # block and at n_max; the iteration computes no telescoping margin, and
    # the check after it gives the per-level ones
    for n_max, tol in [(1, 1e-10), (4, 1e-10), (9, 1e-3), (40, 1e-30)]:
        d, psi, cfg = fixture(direction, count, n_max=n_max, tol=tol)
        table, ref = LevelTable(d, cfg), RefTable(d, cfg)
        got = outcome_fields(stabilize(table, psi, rho_rows, weight_kind=weight_kind))
        want = stabilize_ref(ref, psi, rho_rows, weight_kind)
        same(got, want)
        assert all(len(astuple(lv)) == 3 for lv in got[4])
        same_margins(table, psi, want[6], weight_kind)
        check_table_levels(table, ref)


@pytest.mark.parametrize("kappa", [2.0, 1.5, 0.75])
def test_blocks_give_the_kappa_weighted_majorants(kappa):
    d, psi, cfg = fixture("descending", 32)
    for weight_kind in ("psi_xx_z0", "psi_x0_z0"):
        table = LevelTable(d, cfg)
        got = outcome_fields(stabilize(table, psi, rho_rows, weight_kind))
        want = stabilize_ref(RefTable(d, cfg), psi, rho_rows, weight_kind, kappa)
        same(got, want)
        same_margins(table, psi, want[6], weight_kind, kappa)


def test_blocks_give_the_per_level_luxemburg_envelope():
    # an Orlicz envelope: psi's terms are bisected Luxemburg norms, stacked
    # over the block's levels in one call
    orlicz = ModularSpec(kind="orlicz", phi="linear")

    def rho_orlicz(rows):
        return eval_modular(orlicz, np.atleast_2d(rows))

    d, _, cfg = fixture("descending", 32)
    for weight_kind in ("psi_xx_z0", "psi_x0_z0"):
        # one norm memo per run, as a scenario builds it
        psi = PsiEnvelope(theta=1.0, p=2.0, direction="descending", norm_fn=coeff_norm_fn(orlicz))
        table = LevelTable(d, cfg)
        got = outcome_fields(stabilize(table, psi, rho_orlicz, weight_kind))
        run_psi = psi
        psi = PsiEnvelope(theta=1.0, p=2.0, direction="descending", norm_fn=coeff_norm_fn(orlicz))
        want = stabilize_ref(RefTable(d, cfg), psi, rho_orlicz, weight_kind)
        same(got, want)
        same_margins(table, run_psi, want[6], weight_kind, rho_fn=rho_orlicz)


class BlowsUp:
    """The map d, except that it is not finite on the rows whose largest
    |x| passes ``limit`` (ascending) or drops below it (descending, zero
    rows aside); like BiMap it then raises at the first such row."""

    def __init__(self, d, limit, direction):
        self.d, self.limit, self.direction = d, limit, direction
        self.zero_boundary = True
        self.raised = 0

    def __call__(self, x, z):
        m = np.abs(np.atleast_2d(x)).max(axis=1)
        bad = m > self.limit if self.direction == "ascending" else (m > 0) & (m < self.limit)
        if bad.any():
            self.raised += 1
            idx = int(np.argmax(bad))
            raise NonFiniteValueError(f"map evaluation is not finite at batch row {idx}",
                                      probe_id=idx)
        return self.d(x, z)


class Huge:
    """The map d, except that rows whose largest |x| is below ``limit``
    (zero rows aside) have the value ``value`` in every coordinate."""

    def __init__(self, d, limit, value):
        self.d, self.limit, self.value = d, limit, value
        self.zero_boundary = True

    def __call__(self, x, z):
        vals = self.d(x, z)
        m = np.abs(np.atleast_2d(x)).max(axis=1)
        vals[(m > 0) & (m < self.limit)] = self.value
        return vals


def _bad_from(direction, cfg, level):
    """The limit at which the first bad rows are those of ``level``."""
    m = np.abs(cfg.probes.x).max(axis=1)
    if direction == "ascending":
        return float(m.max()) * 2.0**level * 0.75
    return float(m[m > 0].min()) / 2.0 ** (level - 1) * 0.75


@pytest.mark.parametrize("count", [32, 512, 700])
@pytest.mark.parametrize("direction", ["ascending", "descending"])
def test_a_non_finite_level_in_a_block(direction, count):
    d, psi, cfg = fixture(direction, count)
    n_conv = stabilize(LevelTable(d, cfg), psi, rho_rows).N_converged
    # a bad level before the convergence level raises there; one after it,
    # in the block the run reads, raises only when it is read
    for bad, raises in ((n_conv - 5, True), (n_conv + 1, False)):
        wrapped = BlowsUp(d, _bad_from(direction, cfg, bad), direction)
        table, ref = LevelTable(wrapped, cfg), RefTable(wrapped, cfg)
        got = run(lambda: outcome_fields(stabilize(table, psi, rho_rows)))
        want = run(lambda: stabilize_ref(ref, psi, rho_rows))
        same(got, want)
        assert (got[0] is NonFiniteValueError) == raises
        if raises:
            assert got[1] == "map evaluation is not finite at batch row %d" % got[3]
        else:
            assert got[0] == n_conv
            # a failed block is tried once; its levels are then read alone
            assert wrapped.raised <= 1
        assert run(lambda: table[bad]) == run(lambda: ref[bad])
        assert run(lambda: table[bad])[0] is NonFiniteValueError
        check_table_levels(table, ref)
        # the levels after the bad one read alone as they did
        assert run(lambda: table[bad + 1]) == run(lambda: ref[bad + 1])


@pytest.mark.parametrize("value, message", [
    (1e308, "non-finite iterate value at level {}"),  # 2^n * 1e308 overflows in the table
    # None: the table holds 1.2e308 from the bad level on, finite, and the
    # norm of such a row, 2.4e308, overflows
    (None, "non-finite modular value"),
])
@pytest.mark.parametrize("count", [32, 512])
def test_a_level_that_overflows(count, value, message):
    # descending: with numpy's overflow ignored, the abort names the level;
    # under pytest's error filter the overflow warning itself is raised, by
    # the blocks as by the per-level walk, at the same level; a level past
    # the convergence level raises nothing in the run
    d, psi, cfg = fixture("descending", count)
    n_conv = stabilize(LevelTable(d, cfg), psi, rho_rows).N_converged
    for bad, raises in ((n_conv - 5, True), (n_conv + 1, False)):
        wrapped = Huge(d, _bad_from("descending", cfg, bad),
                       1.2e308 / 2.0**bad if value is None else value)
        with np.errstate(over="ignore"):
            table, ref = LevelTable(wrapped, cfg), RefTable(wrapped, cfg)
            got = run(lambda: outcome_fields(stabilize(table, psi, rho_rows)))
            same(got, run(lambda: stabilize_ref(ref, psi, rho_rows)))
            if raises:
                assert got[1:3] == (message.format(bad), bad)
            else:
                assert got[0] == n_conv
            level, want = run(lambda: table[bad]), run(lambda: ref[bad])
            if isinstance(want, np.ndarray):  # a finite level, whose rho overflows
                assert level.tobytes() == want.tobytes()
            else:
                assert level == want
        table, ref = LevelTable(wrapped, cfg), RefTable(wrapped, cfg)
        got = run(lambda: outcome_fields(stabilize(table, psi, rho_rows)))
        same(got, run(lambda: stabilize_ref(ref, psi, rho_rows)))
        assert (got[0] is RuntimeWarning) == raises
        # with warnings only shown, the run warns as the per-level walk does:
        # nothing for a level it does not reach
        got, shown = warned(lambda: outcome_fields(stabilize(LevelTable(wrapped, cfg), psi,
                                                             rho_rows)))
        want, want_shown = warned(lambda: stabilize_ref(RefTable(wrapped, cfg), psi, rho_rows))
        same(got, want)
        assert shown == want_shown and bool(shown) == raises


@pytest.mark.parametrize("count", [32, 512])
def test_a_non_finite_modular_value_in_a_block(count):
    # a first-slot quadratic term grows ~2^n under ascending scaling and the
    # exponential modular overflows to +inf; the abort keeps its level
    exp_mod = ModularSpec(kind="orlicz", phi="exp_minus_one")

    def rho_exp(rows):
        return eval_modular(exp_mod, np.atleast_2d(rows))

    d = BiMap(algebra=MATRIX2, kernel="commutator", perturbation=Perturbation("quad_slot1", 1.0))
    cfg = StabilizeConfig(direction="ascending", probes=draw_probes(4, count, 1.0, 22))
    psi = PsiEnvelope(theta=1.0, p=0.5, direction="ascending")
    got = run(lambda: stabilize(LevelTable(d, cfg), psi, rho_exp))
    assert got == run(lambda: stabilize_ref(RefTable(d, cfg), psi, rho_exp))
    assert got[:2] == (NonFiniteValueError, "non-finite modular value") and 1 < got[2] < 40


@pytest.mark.parametrize("N", [1, 3, 4, 40])
@pytest.mark.parametrize("kappa", [2.0, 0.75])
@pytest.mark.parametrize("direction, weight_kind", FORMS)
def test_majorant_rows_are_the_per_level_majorants(direction, weight_kind, kappa, N):
    # every probe's majorant over the span 1..N, not only the maximum
    # margin a telescoping row keeps
    _, psi, cfg = fixture(direction, 64)
    X, Z = cfg.probes.x, cfg.probes.z
    form = _auto_telescope_form(direction, weight_kind)
    ref = _Telescope(form, psi, X, Z, kappa, None)
    psi_z0 = psi(Z, np.zeros_like(Z))
    levels = range(1, N + 1)
    rows = _majorants(form, kappa, _majorant_terms(form, psi, X, levels))
    assert rows.shape == (N, len(X))
    for n, row in zip(levels, rows):
        assert (row * psi_z0).tobytes() == ref.majorant(n).tobytes(), n


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("kappa", [2.0, 1.5, 0.75])
@pytest.mark.parametrize("direction, weight_kind", FORMS)
def test_the_one_pass_gives_the_per_level_margins(direction, weight_kind, kappa, count):
    # on an unconverged run (tol 1e-30, so N = n_max): the check's rows for
    # n = 1, for n at the last level of the table's first block and at the
    # first of the next, and for n = n_max, against the levels taken alone
    d, psi, cfg = fixture(direction, count, theta=0.0005, tol=1e-30)
    table, ref = LevelTable(d, cfg), RefTable(d, cfg)
    out = stabilize(table, psi, rho_rows, weight_kind=weight_kind)
    assert not out.converged and out.N_converged == cfg.n_max
    edge = max(1, BLOCK_ROWS // count)  # the first level of the second block
    for n in sorted({1, max(1, min(edge - 1, cfg.n_max)), min(edge, cfg.n_max), cfg.n_max}):
        margins = margins_ref(ref, psi, rho_rows, n, weight_kind, kappa)
        result = same_margins(table, psi, margins, weight_kind, kappa)
        assert len(result) == n
    assert any(k > 0.0 for k, _ in margins)  # the undersized envelope shows


# --- calibration's scaled family ------------------------------------------------


@pytest.mark.parametrize("radius", [1.0, 1e6])
@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("direction, which", [("ascending", "A"), ("descending", "A"),
                                              ("descending", "B")])
def test_the_scaled_family_in_blocks_has_the_per_level_rows(direction, which, count, radius):
    # radius 1e6 puts the ascending magnitude cap at level 30, inside a block
    d, _, cfg = fixture(direction, count)
    cfg = StabilizeConfig(direction=direction, probes=draw_probes(4, count, radius, 5))
    psi1 = PsiEnvelope(theta=1.0, p=0.5 if direction == "ascending" else 2.0,
                       direction=direction)
    got = list(_scaled_degenerate_family(LevelTable(d, cfg), psi1, rho_rows, which))
    want = list(scaled_family_ref(RefTable(d, cfg), psi1, rho_rows, which))
    assert (len(want) < 40) == (direction == "ascending" and radius > 1)
    for part in (0, 1):  # need, unit
        g = np.concatenate([pair[part] for pair in got])
        w = np.stack([pair[part] for pair in want])
        assert g.tobytes() == w.tobytes()
    per_block = max(1, BLOCK_ROWS // count)
    assert all(len(pair[0]) <= per_block for pair in got)


# --- pieces ---------------------------------------------------------------------


def test_rho_tilde_of_a_batch_is_the_rows_alone():
    rng = np.random.default_rng(8)
    vals = rng.uniform(0.0, 1.0, (6, 20))
    weights = rng.uniform(0.5, 2.0, 20)
    weights[[3, 11]] = 0.0
    vals[:, [3, 11]] = 0.0
    vals[2, 11] = 1.0  # a defect at a zero-weight probe: +inf
    got = rho_tilde_tabulated(vals, weights)
    assert got.tolist() == [rho_tilde_tabulated(row, weights) for row in vals]
    assert got[2] == math.inf and type(rho_tilde_tabulated(vals[0], weights)) is float
    # no weight anywhere: rows with a defect are +inf, a row without one raises
    zero = np.zeros(20)
    assert rho_tilde_tabulated(vals[:3], zero).tolist() == [math.inf] * 3
    quiet = np.vstack([vals[:1], np.zeros(20)])
    for batch in (quiet, quiet[1]):
        with pytest.raises(Exception, match="no probe carries positive weight"):
            rho_tilde_tabulated(batch, zero)


@pytest.mark.parametrize("n_max", [0, -3, MAX_N_MAX + 1, 10**9])
def test_stabilize_config_refuses_a_level_cap_out_of_range(n_max):
    with pytest.raises(ConfigError, match=f"n_max must be between 1 and {MAX_N_MAX}"):
        StabilizeConfig(direction="ascending", probes=draw_probes(4, 17, 1.0, 0), n_max=n_max)


@pytest.mark.parametrize("name", ["tol", "magnitude_cap"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_stabilize_config_refuses_a_tolerance_or_cap_that_is_not_positive(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite and positive"):
        StabilizeConfig(direction="ascending", probes=draw_probes(4, 17, 1.0, 0), **{name: value})
