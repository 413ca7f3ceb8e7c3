import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modstab import (
    BracketDivergenceError,
    ConfigError,
    InvalidModularError,
    ModularSpec,
    PreconditionError,
    check_delta2,
    check_modular_axioms,
    check_remark_properties,
    coeff_norm_fn,
    draw_axiom_samples,
    draw_remark_samples,
    eval_modular,
    luxemburg_norm,
)
from modstab.config import parse_modular
from modstab.modular import PHI_PRESETS, _bisect_luxemburg

NORM = ModularSpec(kind="norm")
POWER2 = ModularSpec(kind="power", p=2.0)
POWER1 = ModularSpec(kind="power", p=1.0)
ORLICZ_SQ = ModularSpec(kind="orlicz", phi="square")
DEAD_ZONE = ModularSpec(kind="orlicz", phi="dead_zone")
EXP = ModularSpec(kind="orlicz", phi="exp_minus_one")


def test_eval_norm_is_euclidean():
    assert eval_modular(NORM, [3.0, 4.0]) == pytest.approx(5.0, abs=1e-14)


def test_eval_power_sums_pth_powers():
    assert eval_modular(POWER2, [3.0, 4.0]) == pytest.approx(25.0, abs=1e-12)


@pytest.mark.parametrize("m", [NORM, POWER2, POWER1, ORLICZ_SQ])
def test_eval_zero_vector_is_exactly_zero(m):
    assert eval_modular(m, np.zeros(3, dtype=complex)) == 0.0


@pytest.mark.parametrize("m", [NORM, POWER2, POWER1, ORLICZ_SQ])
def test_eval_nonzero_is_positive(m):
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert eval_modular(m, v) > 0.0


def test_a_parsed_modular_is_the_library_default():
    # a kind's own field takes its default in ModularSpec alone, so a config
    # that leaves it out and the library call give one spec
    for kind in ("norm", "power", "orlicz"):
        m = parse_modular({"kind": kind})
        assert ModularSpec(m["kind"], m["p"], m["phi"]) == ModularSpec(kind=kind)
    assert ModularSpec(kind="power").p == 2.0 and ModularSpec(kind="orlicz").phi == "square"


def test_invalid_kind_rejected():
    with pytest.raises(ConfigError):
        ModularSpec(kind="banana")
    with pytest.raises(ConfigError):
        ModularSpec(kind="power", p=0.5)


# --- Luxemburg norm ---------------------------------------------------------


def test_luxemburg_of_norm_is_the_norm():
    assert luxemburg_norm(NORM, [3.0, 4.0]) == pytest.approx(5.0, abs=1e-11)


def test_luxemburg_power2_closed_form():
    # rho(x/lam) = 25/lam^2 <= 1 iff lam >= 5
    assert luxemburg_norm(POWER2, [3.0, 4.0]) == pytest.approx(5.0, abs=1e-11)


def test_luxemburg_zero_vector():
    assert luxemburg_norm(POWER2, np.zeros(2)) == 0.0


@pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan")])
@pytest.mark.parametrize("m", [NORM, EXP], ids=["closed-form", "bisected"])
def test_luxemburg_rejects_a_tol_that_is_not_positive(m, tol):
    with pytest.raises(ConfigError):
        luxemburg_norm(m, [1.0, 0.5], tol=tol)


def test_luxemburg_orlicz_square_equals_l2():
    # sum (|x_i|/lam)^2 <= 1 iff lam >= l2 norm, so the bisection must
    # land on the Euclidean norm
    rng = np.random.default_rng(17)
    batch = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
    got = coeff_norm_fn(ORLICZ_SQ)(batch)
    want = np.sqrt((np.abs(batch) ** 2).sum(axis=1))
    assert np.max(np.abs(got - want)) <= 1e-9
    v = batch[0]
    assert luxemburg_norm(ORLICZ_SQ, v) == pytest.approx(float(np.linalg.norm(v)), abs=1e-9)
    assert np.max(np.abs(_bisect_luxemburg(ORLICZ_SQ, batch, 1e-12) - want)) <= 1e-9


def test_luxemburg_matches_lp_closed_form_bulk():
    # the bisection, run on a modular that has a closed form, must land on it
    rng = np.random.default_rng(7)
    for p in (1.0, 1.5, 2.0, 3.0):
        m = ModularSpec(kind="power", p=p)
        for _ in range(50):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            oracle = float(np.sum(np.abs(v) ** p) ** (1.0 / p))
            assert luxemburg_norm(m, v) == pytest.approx(oracle, rel=1e-15)
            assert _bisect_luxemburg(m, v[None], 1e-12)[0] == pytest.approx(oracle, abs=1e-9)


HOMOGENEOUS = [
    NORM,
    POWER1,
    ModularSpec(kind="power", p=1.5),
    POWER2,
    ModularSpec(kind="power", p=3.0),
    ModularSpec(kind="orlicz", phi="linear"),
    ORLICZ_SQ,
]


def _modular_id(m):
    return f"{m.kind}-{m.phi if m.kind == 'orlicz' else m.p}"


def test_homogeneity_degree_of_each_modular():
    assert [m.homogeneity for m in HOMOGENEOUS] == [1.0, 1.0, 1.5, 2.0, 3.0, 1.0, 2.0]
    assert EXP.homogeneity is None and DEAD_ZONE.homogeneity is None


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-40, max_value=40))
def test_closed_form_norms_scale_exactly_by_powers_of_two(k):
    # units must not change a verdict: ||2^k x|| = 2^k ||x||.  Scaling by
    # 2^k is exact, so q = 1 and q = 2 (an abs sum; a sum of squares and a
    # square root) keep every bit.  Other p round each |x_i|^p and the root
    # once more: measured within 1.75e-15 relative, bounded here by 16 ulps.
    rng = np.random.default_rng(41)
    batch = (rng.normal(size=(16, 4)) + 1j * rng.normal(size=(16, 4))) * 10.0 ** rng.uniform(
        -6.0, 6.0, size=(16, 1)
    )
    for m in HOMOGENEOUS:
        base = luxemburg_norm(m, batch)
        scaled = luxemburg_norm(m, 2.0**k * batch)
        if m.homogeneity in (1.0, 2.0):
            assert scaled.tobytes() == (2.0**k * base).tobytes(), _modular_id(m)
        else:
            rel = np.max(np.abs(scaled - 2.0**k * base) / (2.0**k * base))
            assert rel <= 16 * np.finfo(float).eps, _modular_id(m)


BISECTED = [
    ModularSpec(kind="orlicz", phi="linear"),
    ORLICZ_SQ,
    ModularSpec(kind="orlicz", phi="exp_minus_one"),
    NORM,
    POWER1,
    ModularSpec(kind="power", p=1.5),
    POWER2,
]


def _per_row_reference(m, v, tol=1e-12):
    # the scalar bracketing bisection, one modular evaluation per step; it
    # loops forever once one ulp of the norm exceeds tol, so keep |v| small
    vec = np.asarray(v, dtype=np.complex128).reshape(1, -1)
    if not np.any(vec):
        return 0.0

    def under(lam):
        return float(eval_modular(m, vec / lam)[0]) <= 1.0

    hi = 1.0
    while not under(hi):
        hi *= 2.0
    lo = hi / 2.0
    while under(lo):
        hi = lo
        lo /= 2.0
        if lo < 2.0**-64:
            return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if under(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("m", BISECTED, ids=_modular_id)
def test_luxemburg_batch_equals_per_row_bit_for_bit(m):
    # the lockstep bisection must give every row exactly its single-row
    # value, and both must equal the scalar loop; it runs here on every
    # modular, closed form or not.  The public norm is row-wise too.
    rng = np.random.default_rng(23)
    rows = []
    for e in range(-12, 4):
        for _ in range(2):
            rows.append((rng.normal(size=3) + 1j * rng.normal(size=3)) * 10.0**e)
    rows.append(np.zeros(3))
    rows.append(np.array([0.0, 2.5 - 0.5j, 0.0]))
    rows.insert(5, np.zeros(3))
    batch = np.array(rows)
    got = _bisect_luxemburg(m, batch, 1e-12)
    assert got.shape == (len(batch),)
    assert list(got) == [_bisect_luxemburg(m, r[None], 1e-12)[0] for r in batch]
    assert list(got) == [_per_row_reference(m, r) for r in batch]
    assert got[5] == 0.0 and got[-2] == 0.0
    public = luxemburg_norm(m, batch)
    assert list(public) == [luxemburg_norm(m, r) for r in batch]
    assert public[5] == 0.0 and public[-2] == 0.0
    assert isinstance(luxemburg_norm(m, batch[0]), float)


def test_luxemburg_empty_batch():
    assert luxemburg_norm(POWER2, np.zeros((0, 3))).shape == (0,)


def test_luxemburg_batch_with_one_divergent_row_raises():
    # expm1(1e30 / 2**64) still overflows, so no bracket closes below the cap
    batch = np.array([[1.0, 2.0], [1e30, 0.0], [0.5, 0.0]])
    with pytest.raises(BracketDivergenceError):
        luxemburg_norm(EXP, batch)
    with pytest.raises(BracketDivergenceError):
        _bisect_luxemburg(NORM, batch, 1e-12)
    # the closed form has no bracket to lose
    assert luxemburg_norm(NORM, batch)[1] == 1e30


def test_luxemburg_large_entries_terminate():
    # past |x| ~ 1e4 one ulp exceeds the 1e-12 bracket width; the bisection
    # stops once the midpoint rounds onto an end of the bracket
    got = luxemburg_norm(EXP, [1e6, 3e5])
    assert np.isfinite(got) and got > 1e6
    assert luxemburg_norm(NORM, [1e6]) == pytest.approx(1e6, rel=1e-15)


# --- the memo behind coeff_norm_fn -----------------------------------------

MEMOIZED = [EXP, DEAD_ZONE]


def _memo_batches(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 7, 33):
        scale = 10.0 ** rng.choice([-12.0, -3.0, 0.0, 2.0, 6.0], size=(n, 1))
        batch = (rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))) * scale
        batch[1::5] = 0.0
        yield batch
    yield rng.normal(size=4) + 1j * rng.normal(size=4)


def _counting_luxemburg(monkeypatch):
    import modstab.modular

    calls = []
    original = modstab.modular.luxemburg_norm

    def counted(m, x, *args, **kwargs):
        calls.append(x)
        return original(m, x, *args, **kwargs)

    monkeypatch.setattr(modstab.modular, "luxemburg_norm", counted)
    return calls


@pytest.mark.parametrize(
    "m", [ModularSpec(kind="orlicz", phi=phi) for phi in PHI_PRESETS], ids=lambda m: m.phi
)
def test_memo_equals_the_bisection_bit_for_bit(m):
    # bisected presets go through the memo, homogeneous ones straight to
    # the closed form: either way the callable returns luxemburg_norm's bits
    norm_fn = coeff_norm_fn(m)
    for batch in _memo_batches(31):
        want = luxemburg_norm(m, batch)
        first, again = norm_fn(batch), norm_fn(batch.copy())
        assert np.array_equal(first, want) and np.array_equal(again, want)
        assert np.shape(first) == np.shape(want)


def _row_bytes(batch):
    return sorted(r.tobytes() for r in np.ascontiguousarray(batch, dtype=np.complex128))


def test_memo_bisects_a_seen_row_never_again(monkeypatch):
    calls = _counting_luxemburg(monkeypatch)
    norm_fn = coeff_norm_fn(DEAD_ZONE)
    batch = np.array([[1.0, -2.0j], [0.0, 0.0], [3e-12, 4e6]])
    first = norm_fn(batch)
    assert len(calls) == 1
    perm = [2, 0, 1]
    for again, want in (
        (np.array(batch.tolist()), first),
        (batch.astype(np.complex128, order="F"), first),
        (batch[perm], first[perm]),
    ):
        assert norm_fn(again).tobytes() == want.tobytes()
    assert len(calls) == 1


def test_memo_bisects_only_the_unseen_rows_in_one_call(monkeypatch):
    calls = _counting_luxemburg(monkeypatch)
    norm_fn = coeff_norm_fn(EXP)
    seen = np.array([[1.0, 2.0j], [0.5, 0.0], [0.0, 0.0]])
    norm_fn(seen)
    unseen = np.array([[3.0, 0.25], [1e-9j, 7.0], [2.0, -1.0]])
    mixed = np.concatenate([unseen[:1], seen[::-1], unseen[1:]])
    got = norm_fn(mixed)
    assert len(calls) == 2
    assert _row_bytes(calls[1]) == _row_bytes(unseen)
    assert got.tobytes() == luxemburg_norm(EXP, mixed).tobytes()


def test_memo_bisects_a_row_repeated_in_one_batch_once(monkeypatch):
    calls = _counting_luxemburg(monkeypatch)
    norm_fn = coeff_norm_fn(DEAD_ZONE)
    row = np.array([0.75, -1.5j, 2.0])
    batch = np.array([row, 2.0 * row, row, row])
    got = norm_fn(batch)
    assert len(calls) == 1
    assert _row_bytes(calls[0]) == _row_bytes(batch[:2])
    assert got.tobytes() == luxemburg_norm(DEAD_ZONE, batch).tobytes()


@pytest.mark.parametrize(
    "m", [NORM, ModularSpec(kind="power", p=1.5), MEMOIZED[0]], ids=["norm", "power-1.5", "orlicz-linear"]
)
def test_norm_callable_takes_a_vector_or_a_batch(m):
    norm_fn = coeff_norm_fn(m)
    v = np.array([3.0, 4.0])
    one = norm_fn(v)
    assert isinstance(one, float)
    assert one == pytest.approx(luxemburg_norm(m, v), rel=1e-11)
    batch = np.array([v, 2.0 * v, np.zeros(2)])
    many = norm_fn(batch)
    assert isinstance(many, np.ndarray) and many.shape == (3,)
    assert many[0] == one and many[2] == 0.0
    assert many[1] == pytest.approx(2.0 * one, rel=1e-11)


def test_memo_bisects_a_batch_changed_in_place_again(monkeypatch):
    calls = _counting_luxemburg(monkeypatch)
    norm_fn = coeff_norm_fn(DEAD_ZONE)
    batch = np.array([[1.0, 2.0], [0.5, 0.0]], dtype=np.complex128)
    before = norm_fn(batch)
    batch[1, 1] = 7.0
    after = norm_fn(batch)
    assert len(calls) == 2
    assert before[1] == luxemburg_norm(DEAD_ZONE, [0.5, 0.0])
    assert after[1] == luxemburg_norm(DEAD_ZONE, [0.5, 7.0]) > before[1]


def test_memo_is_private_to_each_callable(monkeypatch):
    calls = _counting_luxemburg(monkeypatch)
    batch = np.array([[1.0, 2.0], [0.5, 0.25]])
    a, b = coeff_norm_fn(EXP), coeff_norm_fn(EXP)
    assert np.array_equal(a(batch), b(batch))
    assert len(calls) == 2
    a(batch), b(batch)
    assert len(calls) == 2


@pytest.mark.parametrize("m", HOMOGENEOUS)
def test_closed_form_norms_are_not_bisected(m, monkeypatch):
    import modstab.modular

    calls = []
    original = modstab.modular._bisect_luxemburg

    def counted(spec, rows, tol):
        calls.append(rows)
        return original(spec, rows, tol)

    monkeypatch.setattr(modstab.modular, "_bisect_luxemburg", counted)
    norm_fn = coeff_norm_fn(m)
    batch = np.random.default_rng(5).normal(size=(9, 3)) + 0.5j
    q = 2.0 if m.kind == "norm" else m.homogeneity
    want = (np.abs(batch) ** q).sum(axis=1) ** (1.0 / q)
    got = norm_fn(batch)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
    assert got.flags.writeable and norm_fn(batch) is not got
    assert luxemburg_norm(m, batch, tol=0.5).tobytes() == got.tobytes()
    assert calls == []
    luxemburg_norm(EXP, batch)
    assert len(calls) == 1


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=20.0),
    st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_luxemburg_absolute_homogeneity(mag, ang):
    s = mag * np.exp(1j * ang)
    v = np.array([0.8 - 0.3j, 0.1 + 1.2j, -0.5])
    tol = 1e-11
    base = luxemburg_norm(POWER2, v, tol=tol)
    scaled = luxemburg_norm(POWER2, s * v, tol=tol)
    assert abs(scaled - abs(s) * base) <= 2 * tol + abs(s) * 2 * tol


# --- axiom checker ----------------------------------------------------------


@pytest.mark.parametrize(
    "m",
    [
        NORM,
        POWER2,
        POWER1,
        ModularSpec(kind="power", p=1.5),
        ORLICZ_SQ,
        ModularSpec(kind="orlicz", phi="exp_minus_one"),
        ModularSpec(kind="orlicz", phi="linear"),
        DEAD_ZONE,
    ],
)
def test_axioms_hold_for_builtins(m):
    # every modular that ModularSpec accepts is convex, so each passes
    # iii_convex; dead_zone vanishes near 0 and fails definiteness alone
    samples = draw_axiom_samples(dim=3, count=10_000, seed=11)
    results = check_modular_axioms(m, samples)
    assert list(results) == ["i", "ii", "iii", "iii_convex"]
    for axiom, result in results.items():
        [row] = result
        assert row.payload["check"] == "modular_axiom" and row.payload["axiom"] == axiom
        broken = m is DEAD_ZONE and axiom == "i"
        assert row.passed == (row.payload["margin"] <= 1e-12) == (not broken)


def test_axiom_ii_margin_zero_for_norm():
    samples = draw_axiom_samples(dim=3, count=500, seed=5)
    report = check_modular_axioms(NORM, samples)
    assert report["ii"].margin <= 1e-13


def test_broken_modular_fails_definiteness():
    # every coordinate below 1 in modulus sits in the dead zone
    samples = draw_axiom_samples(dim=3, count=200, seed=2, radius=0.9)
    report = check_modular_axioms(DEAD_ZONE, samples)
    assert not report["i"].passed
    assert report["i"].margin == 1.0
    assert report["ii"].passed and report["iii"].passed


def test_axiom_samples_validated():
    s = draw_axiom_samples(dim=2, count=8, seed=0)
    with pytest.raises(PreconditionError):
        type(s)(x=s.x, y=s.y, alpha=s.alpha + 0.5, beta=s.beta, zeta=s.zeta)
    with pytest.raises(PreconditionError):
        type(s)(x=s.x, y=s.y, alpha=s.alpha, beta=s.beta, zeta=s.zeta * 2.0)


# --- doubling constant ------------------------------------------------------


def test_delta2_norm_is_two():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(100, 3)) + 1j * rng.normal(size=(100, 3))
    [row] = check_delta2(NORM, pts)
    assert abs(row.payload["kappa_hat"] - 2.0) <= 1e-12
    assert row.passed


def test_delta2_power2_is_four_and_fails():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
    [row] = check_delta2(POWER2, pts)
    assert abs(row.payload["kappa_hat"] - 4.0) <= 1e-9
    assert not row.passed


def test_delta2_power1_passes():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
    [row] = check_delta2(POWER1, pts)
    assert abs(row.payload["kappa_hat"] - 2.0) <= 1e-12
    assert row.passed


def _eval_by_call(monkeypatch, values):
    """modular.eval_modular returns [values[k]] at its k-th call."""
    import modstab.modular

    calls = iter(values)
    monkeypatch.setattr(modstab.modular, "eval_modular", lambda m, x: np.array([next(calls)]))


@pytest.mark.parametrize("rho_x", [1.0, 0.5, 8.0, 2.0**-40])
def test_delta2_passes_iff_kappa_hat_is_at_most_kappa_plus_1e_9(rho_x, monkeypatch):
    # kappa_hat = rho(2x)/rho(x), at the cap 2 + 1e-9 and one ulp on either
    # side; rho(x) a power of two, so the quotient is exact
    cap = 2.0 + 1e-9
    for kappa_hat in (np.nextafter(cap, -np.inf), cap, np.nextafter(cap, np.inf)):
        _eval_by_call(monkeypatch, [rho_x, kappa_hat * rho_x])
        [row] = check_delta2(NORM, np.ones((1, 1)))
        assert row.payload == {"check": "delta2", "kappa_hat": kappa_hat}
        assert row.passed == (kappa_hat <= cap)


def test_delta2_detects_degenerate_functional():
    pts = 0.3 * np.ones((4, 2), dtype=complex)
    with pytest.raises(InvalidModularError):
        check_delta2(DEAD_ZONE, pts)


# --- remark properties ------------------------------------------------------


def test_remark_scaling_monotone_single_case():
    samples = draw_remark_samples(dim=2, count=1, seed=0)
    report = check_remark_properties(NORM, samples)
    assert report.passed


def test_remark_power1_equality_case():
    # rho(alpha x) = |alpha| rho(x) exactly for the l1-sum modular
    alpha = 0.25
    x = np.array([[4.0 + 0j, 0.0]])
    s = draw_remark_samples(dim=2, count=1, seed=0)
    samples = type(s)(x=x, a=np.array([0.5]), b=np.array([1.0]), alpha=np.array([alpha]))
    [row] = check_remark_properties(POWER1, samples)
    assert abs(row.payload["scalar_margin"]) <= 1e-14
    assert row.passed


def test_remark_orlicz_square_half_double():
    # rho(x) = 2 and rho(2x)/2 = 4 for x = (1, 1)
    s = draw_remark_samples(dim=2, count=1, seed=0)
    samples = type(s)(
        x=np.array([[1.0 + 0j, 1.0]]),
        a=np.array([0.5]),
        b=np.array([1.0]),
        alpha=np.array([0.5]),
    )
    [row] = check_remark_properties(ORLICZ_SQ, samples)
    assert row.payload["half_double_margin"] == pytest.approx(2.0 - 4.0, abs=1e-12)
    assert row.passed


@pytest.mark.parametrize("nan_at, key", [(1, "increasing_margin"), (3, "scalar_margin"),
                                         (4, "half_double_margin")])
def test_remark_row_fails_on_one_nan_margin(nan_at, key, monkeypatch):
    # rho at x, a x, b x, alpha x and 2x: margins -0.5, -0.25 and -1 but one NaN
    values = [1.0, 0.5, 1.0, 0.25, 4.0]
    values[nan_at] = float("nan")
    _eval_by_call(monkeypatch, values)
    s = draw_remark_samples(dim=1, count=1, seed=0)
    samples = type(s)(x=s.x, a=np.array([0.5]), b=np.array([1.0]), alpha=np.array([0.5]))
    [row] = check_remark_properties(NORM, samples)
    margins = {k: v for k, v in row.payload.items() if k.endswith("_margin")}
    assert [k for k, v in margins.items() if np.isnan(v)] == [key]
    # the row passes iff every margin is <= tol, so a NaN fails it
    assert row.passed == all(v <= 1e-12 for v in margins.values()) == False


@pytest.mark.parametrize("m", [NORM, POWER1, POWER2, ORLICZ_SQ, ModularSpec(kind="power", p=1.5),
                               EXP, ModularSpec(kind="orlicz", phi="linear"), DEAD_ZONE])
def test_remark_bulk(m):
    # convexity gives the scalar and half-double margins on every accepted modular
    report = check_remark_properties(m, draw_remark_samples(dim=4, count=2000, seed=9))
    assert report.passed

