"""The level table and the iteration walk the scaled orbit in blocks of
levels, where ``spec.py`` takes one map call per level.  ``test_spec``
compares whole runs; the cases here reach what a config cannot: a map that
raises or overflows at a chosen level, inside a block the run reads or past
its stop.  The iteration must then give the spec's outcome, bit for bit
(compared through ``repr``, which tells -0.0 from 0.0), the same table
values, and the same exception type, message, level and probe_id, or the
same numpy warnings.
"""

import functools
import math
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spec
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
from modstab.bimaps import rho_tilde_tabulated
from modstab.scenarios import _scaled_degenerate_family
from modstab.stabilize import MAX_N_MAX
from modstab.theorem import THEOREMS
from modstab.verify import _majorant_terms, _majorants, check_telescoping
from test_stabilize import CountingMap

MATRIX2 = preset("matrix2")
NORM = ModularSpec(kind="norm")
COUNTS = [17, 32, 512, 700, 2049]
FORMS = [("ascending", "A"), ("descending", "A"), ("descending", "B")]  # (direction, which)


def rho_rows(rows):
    return eval_modular(NORM, np.atleast_2d(rows))


def spec_form(direction, which):
    """The spec's name for the substitution of the (direction, which) theorem."""
    if direction == "ascending":
        return "ascending"
    return "kappa_first_zero" if which == "B" else "kappa_both_slots"


# --- helpers -------------------------------------------------------------------


def fixture(direction, count, seed=3, theta=0.01, **kw):
    """(map, envelope, config): a contracting orbit in either direction; an
    envelope amplitude below the perturbation's 0.01 makes the telescoping
    margins positive, so a probe other than the zero probe sets them."""
    cfg = StabilizeConfig(direction=direction, probes=draw_probes(4, count, 1.0, seed), **kw)
    if direction == "ascending":
        g = Perturbation("bounded_osc", 0.01, boundary_safe=True)
        psi = PsiEnvelope(theta=theta, p=0.5, direction="ascending")
    else:
        g = Perturbation("power_env", 0.01, p=2.0)
        psi = PsiEnvelope(theta=theta, p=2.0, direction="descending")
    return BiMap(algebra=MATRIX2, kernel="commutator", perturbation=g), psi, cfg


def plain(d, cfg):
    """The spec's one-call-per-level iteration of ``d`` over ``cfg``, each
    level evaluated once however often a test reads it."""
    it = spec.Iteration(d, cfg.direction, cfg.n_max, cfg.tol, cfg.magnitude_cap,
                        cfg.probes.x, cfg.probes.z)
    it.level = functools.cache(it.level)
    return it


def outcome(table, psi, rho_fn=rho_rows, which="A"):
    """stabilize's outcome on ``table`` as the fields ``spec.iterate`` returns."""
    out = stabilize(table, psi, rho_fn, THEOREMS[table.cfg.direction, which])
    levels = [(lv.level, lv.sup_rho_delta, lv.rho_tilde_delta) for lv in out.levels]
    return out.N_converged, out.converged, out.bound_margin, levels, out.weights


def same(got, want):
    """Bit-for-bit equality of outcome fields, or of raised errors."""
    if isinstance(want, tuple) and len(want) == 5 and isinstance(want[3], list):
        assert repr(got[:4]) == repr(want[:4])
        assert got[4].tobytes() == want[4].tobytes()
    else:
        assert got == want


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


def check_table_levels(table, ref, levels):
    """Each of ``levels`` reads as the spec's level, bit for bit and
    read-only, or raises what the spec's raises."""
    for level in levels:
        got, want = run(lambda: table[level]), run(lambda: ref.level(level))
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes() and not got.flags.writeable, level
        else:
            assert got == want, level


def same_margins(table, psi, ref, n, which="A", rho_fn=rho_rows):
    """check_telescoping's rows on levels 1..n of ``table`` are the spec's,
    line for line, each row's lhs the larger margin; returns the margins
    (kappa, final)."""
    direction = table.cfg.direction
    want = spec.telescoping(ref, psi, rho_fn, n, spec_form(direction, which))
    got = check_telescoping(table, psi, rho_fn, n, THEOREMS[direction, which])
    assert [r.to_json() for r in got] == [r.to_json() for r in want]
    cols = got.columns
    assert got.lhs.tobytes() == np.maximum(cols["kappa_margin"], cols["final_margin"]).tobytes()
    return [(r.payload["kappa_margin"], r.payload["final_margin"]) for r in want]


# --- the iteration -------------------------------------------------------------


@pytest.mark.parametrize("theta", [0.01, 0.0005])
@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("direction, which", FORMS)
def test_blocks_give_the_per_level_diagnostics(direction, which, count, theta):
    d, psi, cfg = fixture(direction, count, theta=theta)
    counted = CountingMap(d, cfg.probes)
    table, ref = LevelTable(counted, cfg), plain(d, cfg)
    got = outcome(table, psi, which=which)
    same(got, spec.iterate(ref, psi, rho_rows, spec_form(direction, which)))
    margins = same_margins(table, psi, ref, got[0], which)
    if theta < 0.01:
        assert any(kappa > 0.0 for kappa, _ in margins)
    n, per_block = got[0], max(1, BLOCK_ROWS // count)
    assert got[1] and n > 3  # converged
    # the run read blocks from level 0 and stopped inside the one holding N;
    # the telescoping check read no level past it
    end = min((n // per_block + 1) * per_block, cfg.n_max + 1)
    assert counted.calls == Counter(range(end))
    assert all(w <= max(BLOCK_ROWS, count) for w in counted.widths)
    check_table_levels(table, ref, range(end))


@pytest.mark.parametrize("count", [17, 512, 700])
@pytest.mark.parametrize("direction, which", FORMS)
def test_blocks_without_telescoping_and_with_other_caps(direction, which, count):
    # level caps and tolerances put the stop at a block edge, inside a
    # block and at n_max; the iteration computes no telescoping margin, and
    # the check after it gives the per-level ones
    for n_max, tol in [(1, 1e-10), (4, 1e-10), (9, 1e-3), (40, 1e-30)]:
        d, psi, cfg = fixture(direction, count, n_max=n_max, tol=tol)
        counted = CountingMap(d, cfg.probes)
        table, ref = LevelTable(counted, cfg), plain(d, cfg)
        got = outcome(table, psi, which=which)
        same(got, spec.iterate(ref, psi, rho_rows, spec_form(direction, which)))
        same_margins(table, psi, ref, got[0], which)
        check_table_levels(table, ref, sorted(counted.calls))


@st.composite
def read_orders(draw):
    """(direction, probe count, seed, n_max, cap level, reads): a table of
    17-64 probes, so 32-120 levels to a block; an ascending one has its
    magnitude cap after a level in 0..n_max+5, and the reads are any
    levels in 0..n_max+5, repeats included."""
    n_max = draw(st.integers(1, 130))
    return (draw(st.sampled_from(["ascending", "descending"])), draw(st.integers(17, 64)),
            draw(st.integers(0, 2**16)), n_max, draw(st.integers(0, n_max + 5)),
            draw(st.lists(st.integers(0, n_max + 5), min_size=1, max_size=40)))


@settings(max_examples=40, deadline=None)
@given(case=read_orders())
def test_the_order_of_reads_moves_no_bit(case):
    # every read is the spec's level, or raises what it raises, and a
    # level is evaluated at most once, whichever level is read first; a
    # sweep of every level after the drawn reads reads past the cap
    direction, count, seed, n_max, cap_level, reads = case
    d, _, cfg = fixture(direction, count, seed=seed, n_max=n_max)
    if direction == "ascending":
        top = float(np.abs(cfg.probes.x).max())
        cfg = replace(cfg, magnitude_cap=2.0**cap_level * top)
    counted = CountingMap(d, cfg.probes)
    table = LevelTable(counted, cfg)
    check_table_levels(table, plain(d, cfg), reads + list(range(n_max + 6)))
    assert set(counted.calls.values()) <= {1}


class BlowsUp:
    """The map d, except that it is not finite on the rows whose largest
    |x| passes ``limit`` (ascending) or drops below it (descending, zero
    rows aside); like BiMap it then raises at the first such row."""

    def __init__(self, d, limit, direction):
        self.d, self.limit, self.direction = d, limit, direction
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
        counted = CountingMap(wrapped, cfg.probes)
        table, ref = LevelTable(counted, cfg), plain(wrapped, cfg)
        got = run(lambda: outcome(table, psi))
        same(got, run(lambda: spec.iterate(ref, psi, rho_rows, spec_form(direction, "A"))))
        assert (got[0] is NonFiniteValueError) == raises
        if raises:
            assert got[1] == "map evaluation is not finite at batch row %d" % got[3]
        else:
            assert got[0] == n_conv
            # a failed block is tried once; its levels are then read alone
            assert wrapped.raised <= 1
        assert run(lambda: table[bad]) == run(lambda: ref.level(bad))
        assert run(lambda: table[bad])[0] is NonFiniteValueError
        check_table_levels(table, ref, sorted(counted.calls))
        # the levels after the bad one read alone as they did
        assert run(lambda: table[bad + 1]) == run(lambda: ref.level(bad + 1))


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

    def ref_outcome():
        return spec.iterate(plain(wrapped, cfg), psi, rho_rows, "kappa_both_slots")

    for bad, raises in ((n_conv - 5, True), (n_conv + 1, False)):
        wrapped = Huge(d, _bad_from("descending", cfg, bad),
                       1.2e308 / 2.0**bad if value is None else value)
        with np.errstate(over="ignore"):
            table = LevelTable(wrapped, cfg)
            got = run(lambda: outcome(table, psi))
            same(got, run(ref_outcome))
            if raises:
                assert got[1:3] == (message.format(bad), bad)
            else:
                assert got[0] == n_conv
            level, want = run(lambda: table[bad]), run(lambda: plain(wrapped, cfg).level(bad))
            if isinstance(want, np.ndarray):  # a finite level, whose rho overflows
                assert level.tobytes() == want.tobytes()
            else:
                assert level == want
        got = run(lambda: outcome(LevelTable(wrapped, cfg), psi))
        same(got, run(ref_outcome))
        assert (got[0] is RuntimeWarning) == raises
        # with warnings only shown, the run warns as the per-level walk does:
        # nothing for a level it does not reach
        got, shown = warned(lambda: outcome(LevelTable(wrapped, cfg), psi))
        want, want_shown = warned(ref_outcome)
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
    assert got == run(lambda: spec.iterate(plain(d, cfg), psi, rho_exp, "ascending"))
    assert got[:2] == (NonFiniteValueError, "non-finite modular value") and 1 < got[2] < 40


@pytest.mark.parametrize("N", [1, 3, 4, 40])
@pytest.mark.parametrize("theta", [0.01, 0.0005])
@pytest.mark.parametrize("direction, which", FORMS)
def test_majorant_rows_are_the_per_level_majorants(direction, which, theta, N):
    # every probe's majorant over the span 1..N, not only the maximum
    # margin a telescoping row keeps, at the matched envelope and an
    # undersized one
    _, psi, cfg = fixture(direction, 64, theta=theta)
    X = cfg.probes.x
    form, theorem = spec_form(direction, which), THEOREMS[direction, which]
    terms = spec.majorant_terms(form, psi, X, N)
    rows = _majorants(theorem, _majorant_terms(theorem, psi, X, range(1, N + 1)))
    assert rows.shape == (N, len(X))
    for n, row in enumerate(rows, 1):
        assert row.tobytes() == spec.majorant(form, terms, n).tobytes(), n


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("seed", [3, 7, 11])
@pytest.mark.parametrize("direction, which", FORMS)
def test_the_one_pass_gives_the_per_level_margins(direction, which, seed, count):
    # on an unconverged run (tol 1e-30, so N = n_max), on three probe draws:
    # the check's rows for n = 1, for n at the last level of the table's
    # first block and at the first of the next, and for n = n_max, against
    # the levels taken alone
    d, psi, cfg = fixture(direction, count, seed, theta=0.0005, tol=1e-30)
    table, ref = LevelTable(d, cfg), plain(d, cfg)
    out = stabilize(table, psi, rho_rows, theorem=THEOREMS[direction, which])
    assert not out.converged and out.N_converged == cfg.n_max
    edge = max(1, BLOCK_ROWS // count)  # the first level of the second block
    for n in sorted({1, max(1, min(edge - 1, cfg.n_max)), min(edge, cfg.n_max), cfg.n_max}):
        margins = same_margins(table, psi, ref, n, which)
    assert any(k > 0.0 for k, _ in margins)  # the undersized envelope shows


# --- calibration's scaled family ------------------------------------------------


@pytest.mark.parametrize("radius", [1.0, 1e6])
@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("direction, which", FORMS)
def test_the_scaled_family_in_blocks_has_the_per_level_rows(direction, which, count, radius):
    # radius 1e6 puts the ascending magnitude cap at level 30, inside a block
    d, _, cfg = fixture(direction, count)
    cfg = StabilizeConfig(direction=direction, probes=draw_probes(4, count, radius, 5))
    psi1 = PsiEnvelope(theta=1.0, p=0.5 if direction == "ascending" else 2.0,
                       direction=direction)
    got = list(_scaled_degenerate_family(LevelTable(d, cfg), psi1, rho_rows,
                                         THEOREMS[direction, which]))
    want = list(spec.scaled_family(plain(d, cfg), psi1, rho_rows, which))
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
