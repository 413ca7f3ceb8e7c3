from collections import Counter

import numpy as np
import pytest

from modstab import (
    BiMap,
    LevelTable,
    ModularSpec,
    NonFiniteValueError,
    Perturbation,
    PreconditionError,
    ProbeSet,
    PsiEnvelope,
    StabilizeConfig,
    check_biadditivity,
    check_biderivation,
    check_first_slot_linearity,
    check_inequality_A,
    check_inequality_B,
    check_stability_bound,
    check_superstability,
    default_linearity_scalars,
    draw_probes,
    eval_modular,
    preset,
    stabilize,
)
from modstab._kernels import BLOCK_ROWS
from modstab.algebra import three_unimodular_decomposition
from modstab.report import ReportRecord
from modstab.scenarios import calibrate_theta
from modstab.verify import inequality_parts

MATRIX2 = preset("matrix2")
COMPLEX = preset("complex")
ZERO_MUL = preset("zero_mul", dim=3)
NORM = ModularSpec(kind="norm")


def rho_rows(rows):
    return eval_modular(NORM, np.atleast_2d(rows))


def one_probe(x, y, z, w, lam=1.0):
    arr = lambda v: np.array([[complex(v)]], dtype=complex)
    return ProbeSet(
        x=arr(x), y=arr(y), z=arr(z), w=arr(w),
        lam=np.array([lam], dtype=complex), seed=0, radius=1.0, mandatory={},
    )


def random_tensor_map(seed, algebra=MATRIX2, scale=1.0):
    rng = np.random.default_rng(seed)
    d = algebra.dim
    t = scale * (rng.normal(size=(d, d, d)) + 1j * rng.normal(size=(d, d, d)))
    return BiMap(algebra=algebra, kernel="tensor", tensor=t)


QUAD = BiMap(algebra=COMPLEX, kernel=None, perturbation=Perturbation("quad_slot1", 1.0))


# --- inequality A ------------------------------------------------------------


def test_inequality_A_vanishes_for_bilinear_maps():
    probes = draw_probes(4, 64, 1.0, seed=1)
    recs = check_inequality_A(random_tensor_map(3), rho_rows, 0.5, None, probes)
    assert all(r.passed for r in recs)
    assert recs.lhs.max() <= 1e-10


def test_inequality_A_quadratic_probe_arithmetic():
    # f(x,z) = x^2 z at x=y=1, z=1, w=0: defect is 2 f(2,1) - 4 f(1,1) = 4
    recs = check_inequality_A(QUAD, rho_rows, 0.5, None, one_probe(1, 1, 1, 0))
    assert len(recs) == 1
    assert recs.lhs[0] == pytest.approx(4.0, abs=1e-12)
    assert recs.rhs[0] == pytest.approx(0.0, abs=1e-12)
    assert not recs[0].passed


def test_inequality_checkers_enforce_preconditions():
    probes = draw_probes(4, 32, 1.0, seed=20)
    f = BiMap(algebra=MATRIX2, kernel="commutator", zero_boundary=False)
    with pytest.raises(PreconditionError):
        check_inequality_A(f, rho_rows, 0.5, None, probes)
    with pytest.raises(PreconditionError):
        check_inequality_B(f, rho_rows, 0.5, None, probes)
    with pytest.raises(PreconditionError):
        check_inequality_A(random_tensor_map(1), rho_rows, 1.2, None, probes)


def test_inequality_A_shrinking_s_never_breaks_zero_defect():
    probes = draw_probes(4, 32, 1.0, seed=2)
    f = random_tensor_map(4)
    for s in (0.9, 0.45, 0.1, 0.01):
        recs = check_inequality_A(f, rho_rows, s, None, probes)
        assert all(r.passed for r in recs)


# --- inequality B ------------------------------------------------------------


def test_inequality_B_vanishes_for_bilinear_maps():
    probes = draw_probes(4, 64, 1.0, seed=3)
    recs = check_inequality_B(random_tensor_map(5), rho_rows, 0.5, None, probes)
    assert all(r.passed for r in recs)
    assert recs.lhs.max() <= 1e-10


def test_inequality_B_quadratic_fails_at_second_zero_probe():
    # y = w = 0 reduces the defect to 8 f(x/2, z) - 4 f(x, z) = -2 f(x, z)
    recs = check_inequality_B(QUAD, rho_rows, 0.5, None, one_probe(1, 0, 1, 0))
    assert recs.lhs[0] == pytest.approx(2.0, abs=1e-12)
    assert not recs[0].passed
    # the halving in the first argument hides pure second-degree terms at x = y
    recs2 = check_inequality_B(QUAD, rho_rows, 0.5, None, one_probe(1, 1, 1, 0))
    assert recs2.lhs[0] <= 1e-12
    assert recs2[0].passed


# --- biadditivity -------------------------------------------------------------


@pytest.mark.parametrize("which", ["A", "B"])
def test_kept_rows_get_the_right_side_of_a_full_evaluation(which):
    probes = draw_probes(4, 64, 1.0, 31)
    d = BiMap(algebra=MATRIX2, perturbation=Perturbation("quad_slot1", 0.1))
    args = (d, rho_rows, 0.5, probes.x, probes.y, probes.z, probes.w, probes.lam)
    lhs, rhs = inequality_parts(*args, which=which)
    kept = np.array([0, 5, 17, 63])
    seen = []

    def keep(got):
        seen.append(got)
        return kept

    cut_lhs, cut_rhs = inequality_parts(*args, which=which, keep=keep)
    assert np.array_equal(seen[0], lhs) and np.array_equal(cut_lhs, lhs)
    assert np.array_equal(cut_rhs[kept], rhs[kept])
    assert not np.delete(cut_rhs, kept).any()
    lhs0, rhs0 = inequality_parts(*args, which=which, keep=lambda got: np.array([], dtype=int))
    assert np.array_equal(lhs0, lhs) and not rhs0.any()


def test_a_map_error_on_kept_rows_names_the_row_of_the_batch():
    # only inequality A's right side calls f(y, w); the map fails on the
    # rows whose first argument is the marked y
    probes = draw_probes(4, 64, 1.0, 32)
    marker = np.full(4, 7.0 + 7.0j)
    y = probes.y.copy()
    y[[9, 40]] = marker
    d = random_tensor_map(32)

    def f(x, z):
        bad = np.flatnonzero((x == marker).all(axis=1))
        if bad.size:
            raise NonFiniteValueError("not finite", probe_id=int(bad[0]))
        return d(x, z)

    f.algebra, f.zero_boundary = d.algebra, d.zero_boundary
    args = (f, rho_rows, 0.5, probes.x, y, probes.z, probes.w, probes.lam)
    with pytest.raises(NonFiniteValueError, match="at batch row 40$") as exc:
        inequality_parts(*args, keep=lambda lhs: np.array([3, 40, 50]))
    assert exc.value.probe_id == 40
    inequality_parts(*args, keep=lambda lhs: np.array([3, 50]))  # the marked rows are skipped


def test_biadditivity_of_kernels():
    probes = draw_probes(4, 64, 1.0, seed=4)
    slot1, slot2 = check_biadditivity(random_tensor_map(6), rho_rows, probes)
    assert slot1.passed.all() and slot2.passed.all()
    assert slot1.lhs[0] <= 1e-12 and slot2.lhs[0] <= 1e-12
    assert [slot1.check, slot2.check] == ["biadditivity_slot1", "biadditivity_slot2"]
    assert slot1[0].payload["residual"] == slot1.lhs[0] and slot1[0].payload["tol"] == 1e-10


def test_biadditivity_detects_oscillation():
    probes = draw_probes(4, 64, 1.0, seed=5)
    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("bounded_osc", 0.1))
    slot1, slot2 = check_biadditivity(d, rho_rows, probes)
    assert not (slot1.passed.all() and slot2.passed.all())
    assert slot1.lhs[0] > 1e-3


def test_biadditivity_zero_map():
    probes = draw_probes(4, 32, 1.0, seed=6)
    zero = BiMap(algebra=MATRIX2, kernel="product", coeff=0.0)
    slot1, slot2 = check_biadditivity(zero, rho_rows, probes)
    assert slot1.lhs[0] == 0.0 and slot2.lhs[0] == 0.0


def test_passing_inequality_A_implies_biadditivity():
    # fixtures that clear the defect check with no envelope must also clear
    # the additivity check at ten times the identity tolerance
    probes = draw_probes(4, 64, 1.0, seed=7)
    fixtures = [random_tensor_map(s) for s in range(20, 26)]
    fixtures.append(BiMap(algebra=MATRIX2, kernel="commutator",
                          perturbation=Perturbation("quad_slot1", 0.4)))
    for f in fixtures:
        recs = check_inequality_A(f, rho_rows, 0.5, None, probes)
        if np.all(recs.margin <= 0):
            slot1, slot2 = check_biadditivity(f, rho_rows, probes)
            assert slot1.lhs[0] <= 1e-9 and slot2.lhs[0] <= 1e-9


# --- first slot homogeneity ---------------------------------------------------


def test_linearity_of_complex_bilinear_kernel():
    probes = draw_probes(4, 48, 1.0, seed=8)
    recs = check_first_slot_linearity(
        random_tensor_map(9), rho_rows, default_linearity_scalars(0), probes
    )
    assert all(r.passed for r in recs)
    assert recs.lhs.max() <= 1e-10


def test_linearity_route_reported_for_generic_scalars():
    probes = draw_probes(4, 32, 1.0, seed=9)
    recs = check_first_slot_linearity(
        random_tensor_map(10), rho_rows, [2.0 + 1.0j], probes
    )
    assert "route" in recs[0].payload and "M" in recs[0].payload
    assert recs[0].payload["M"] > 4 * abs(2.0 + 1.0j)


def test_conjugation_fails_at_imaginary_unit():
    conj = BiMap(algebra=COMPLEX, kernel="conjugate_product")
    probes = draw_probes(1, 32, 1.0, seed=10)
    recs = check_first_slot_linearity(conj, rho_rows, [1.0, 1j], probes)
    by_lam = {tuple(r.payload["lam"]): r for r in recs}
    assert by_lam[(1.0, 0.0)].payload["lhs"] <= 1e-15
    bad = by_lam[(0.0, 1.0)]
    assert not bad.passed
    # f(i x, z) - i f(x, z) = -2i conj(x) z
    expected = float(np.max(2.0 * np.abs(probes.x[:, 0]) * np.abs(probes.z[:, 0])))
    assert bad.payload["lhs"] == pytest.approx(expected, abs=1e-12)


def _linearity_per_scalar(f, rho_fn, scalars, probes, tol=1e-10):
    """The sweep as one map call per scalar and per route term: the oracle
    of the stacked sweep, as the report rows it must read as."""
    X, Z = probes.x, probes.z
    fXZ = f(X, Z)
    out = []
    for idx, lam in enumerate(np.asarray(scalars, dtype=np.complex128)):
        fLXZ = f(lam * X, Z)
        direct = float(np.max(rho_fn(fLXZ - lam * fXZ)))
        extra = {"lam": [float(lam.real), float(lam.imag)], "direct": direct}
        worst = direct
        if abs(abs(lam) - 1.0) > 1e-12:
            M = int(np.floor(4.0 * abs(lam))) + 1
            triple = three_unimodular_decomposition(3.0 * lam / M)
            route_vec = (M / 3.0) * (
                f(triple.mu1 * X, Z) + f(triple.mu2 * X, Z) + f(triple.mu3 * X, Z)
            )
            route = float(np.max(rho_fn(fLXZ - route_vec)))
            extra["route"] = route
            extra["M"] = M
            worst = float(np.maximum(direct, route))
        payload = {"check": "first_slot_linearity", "probe_id": idx, "lhs": worst, "rhs": 0.0,
                   "margin": worst, **extra}
        out.append(ReportRecord(None, "check", payload, worst <= tol))
    return out


@pytest.mark.parametrize("modular", [NORM, ModularSpec(kind="power", p=1.5),
                                     ModularSpec(kind="orlicz", phi="exp_minus_one")],
                         ids=["norm", "power1.5", "orlicz-exp"])
def test_stacked_linearity_equals_per_scalar_calls_bit_for_bit(modular):
    def rho_fn(rows):
        return eval_modular(modular, np.atleast_2d(rows))

    tensor3 = np.random.default_rng(31).normal(size=(4, 4, 3)) + 0j
    maps = [
        (BiMap(algebra=MATRIX2, kernel="commutator",
               perturbation=Perturbation("bounded_osc", 0.01, boundary_safe=True)), 4),
        (BiMap(algebra=MATRIX2, kernel="commutator",
               perturbation=Perturbation("power_env", 0.01, p=0.5)), 4),
        (BiMap(algebra=MATRIX2, kernel="tensor", tensor=tensor3,
               perturbation=Perturbation("quad_slot1", 0.3)), 4),
        (BiMap(algebra=COMPLEX, kernel="conjugate_product"), 1),
    ]
    # generic scalars of modulus 0, 3 and 4, an exact corner, and the defaults
    scalars = np.concatenate([default_linearity_scalars(5), [0.0, 3.0, -4.0j, 1j]])
    for f, dim in maps:
        for radius in (1.0, 1e3):
            probes = draw_probes(dim, 40, radius, seed=6)
            want = _linearity_per_scalar(f, rho_fn, scalars, probes)
            got = check_first_slot_linearity(f, rho_fn, scalars, probes)
            assert [r.to_json() for r in got] == [r.to_json() for r in want]


def test_linearity_row_fails_on_a_nan_route_residual():
    # a map linear in x whose route stack, and only it, comes back NaN
    probes = draw_probes(1, 32, 1.0, seed=4)
    n = len(probes.x)

    def f(X, Z):
        out = X * Z
        return np.full_like(out, np.nan) if len(X) == 3 * n else out

    [row] = check_first_slot_linearity(f, rho_rows, [2.0 + 0.5j], probes)
    assert np.isnan(row.payload["route"]) and row.payload["direct"] <= 1e-15
    assert np.isnan(row.payload["lhs"]) and not row.passed


def test_linearity_with_no_scalars_is_empty():
    probes = draw_probes(4, 32, 1.0, seed=3)
    assert check_first_slot_linearity(random_tensor_map(2), rho_rows, [], probes) == []


# --- stability bound -----------------------------------------------------------


def test_stability_bound_trivial_for_exact_limit():
    probes = draw_probes(4, 48, 1.0, seed=11)
    d = BiMap(algebra=MATRIX2, kernel="commutator")
    psi = PsiEnvelope(theta=1.0, p=0.5, direction="ascending")
    dxz = d(probes.x, probes.z)
    recs = check_stability_bound(dxz, dxz, psi, rho_rows, probes)
    assert all(r.passed for r in recs)
    assert np.all(recs.margin <= 0.0)


def test_stability_bound_flags_oversized_perturbation():
    probes = draw_probes(4, 128, 1.0, seed=12)
    small = BiMap(algebra=MATRIX2, kernel="commutator",
                  perturbation=Perturbation("bounded_osc", 0.01, boundary_safe=True))
    psi0 = PsiEnvelope(theta=1.0, p=0.5, direction="ascending")
    cfg = StabilizeConfig(direction="ascending", probes=probes)
    theta = calibrate_theta(LevelTable(small, cfg), psi0, rho_rows, 0.5, which="A")
    psi = psi0.with_theta(theta)

    big = BiMap(algebra=MATRIX2, kernel="commutator",
                perturbation=Perturbation("bounded_osc", 0.5, boundary_safe=True))
    out = stabilize(LevelTable(big, cfg), psi, rho_rows)
    X, Z = probes.x, probes.z
    recs = check_stability_bound(big(X, Z), out.D(X, Z), psi, rho_rows, probes)
    assert np.any(recs.margin > 0)


def test_stability_bound_corollary_constant_reported():
    probes = draw_probes(4, 32, 1.0, seed=13)
    d = BiMap(algebra=MATRIX2, kernel="commutator")
    psi = PsiEnvelope(theta=1.0, p=0.5, direction="ascending")
    dxz = d(probes.x, probes.z)
    recs = check_stability_bound(dxz, dxz, psi, rho_rows, probes, corollary_theta=1.0)
    assert all("corollary_rhs" in r.payload for r in recs)


# --- derivation residuals -------------------------------------------------------


def test_commutator_is_a_biderivation():
    probes = draw_probes(4, 64, 1.0, seed=14)
    d = BiMap(algebra=MATRIX2, kernel="commutator")
    slots = check_biderivation(d, rho_rows, MATRIX2, None, probes, assert_slot2=True)
    assert all(slot.passed.all() for slot in slots)
    assert max(slot.lhs.max() for slot in slots) <= 1e-12


def test_zero_product_algebra_everything_is_a_biderivation():
    probes = draw_probes(3, 32, 1.0, seed=15)
    d = random_tensor_map(16, algebra=ZERO_MUL)
    slots = check_biderivation(d, rho_rows, ZERO_MUL, None, probes, assert_slot2=True)
    # products vanish, so residuals reduce to f(0, z) etc., exactly zero
    assert all(np.all(slot.lhs == 0.0) for slot in slots)


def test_plain_product_violates_the_leibniz_rule():
    probes = draw_probes(1, 32, 1.0, seed=16)
    d = BiMap(algebra=COMPLEX, kernel="product")
    slot1, _ = check_biderivation(d, rho_rows, COMPLEX, None, probes)
    assert slot1.check == "biderivation_slot1"
    expected = np.abs(probes.x[:, 0] * probes.y[:, 0] * probes.z[:, 0])
    for lhs, want in zip(slot1.lhs, expected):
        assert lhs == pytest.approx(float(want), abs=1e-13)
    assert any(not r.passed for r in slot1)


def test_slot2_records_are_advisory_by_default():
    probes = draw_probes(1, 32, 1.0, seed=17)
    d = BiMap(algebra=COMPLEX, kernel="product")
    slot1, slot2 = check_biderivation(d, rho_rows, COMPLEX, None, probes)
    assert slot2.check == "biderivation_slot2" and slot2.advisory and slot2.n_failed == 0
    assert all(r.advisory for r in slot2)
    assert slot1.check == "biderivation_slot1" and not any(r.advisory for r in slot1)


# --- exact-scaling certificate ---------------------------------------------------


def test_superstability_of_kernels_and_zero():
    probes = draw_probes(4, 48, 1.0, seed=18)
    assert check_superstability(random_tensor_map(19), rho_rows, probes).passed.all()
    zero = BiMap(algebra=MATRIX2, kernel="product", coeff=0.0)
    assert check_superstability(zero, rho_rows, probes).passed.all()


def test_superstability_rejects_oscillation():
    probes = draw_probes(4, 48, 1.0, seed=19)
    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("bounded_osc", 0.05))
    rep = check_superstability(d, rho_rows, probes)
    assert len(rep) == 1 and not rep.passed[0]
    assert rep[0].payload["sup_residual"] == rep.lhs[0] > 1e-4


class RowCounter:
    """Wraps a map and counts its calls, the rows it evaluates and the
    probe-sized (x, z) blocks of its arguments, keyed by their bytes."""

    def __init__(self, d, n):
        self.d = d
        self.n = n
        self.zero_boundary = d.zero_boundary
        self.value_dim = d.value_dim
        self.calls = 0
        self.rows = 0
        self.blocks = Counter()

    def __call__(self, x, z):
        self.calls += 1
        self.rows += len(x)
        for b in range(0, len(x), self.n):
            self.blocks[x[b:b + self.n].tobytes() + z[b:b + self.n].tobytes()] += 1
        return self.d(x, z)


@pytest.mark.parametrize(
    "checker, given",
    [("biadditivity", False), ("first_slot_linearity", False), ("biderivation", False),
     ("biadditivity", True), ("first_slot_linearity", True)],
    ids=["biadditivity", "first_slot_linearity", "biderivation",
         "biadditivity-table", "first_slot_linearity-table"],
)
def test_checkers_evaluate_each_map_value_once(checker, given):
    # one probe block of rows per map value a checker's residuals name:
    # f(x, z) is shared by both slots, and f(l x, z) by the direct and the
    # route residuals; the linearity sweep stacks its blocks into 3 calls.
    # Given f(x, z) from a level table, a checker evaluates no (x, z) block.
    probes = draw_probes(4, 32, 1.0, seed=5)
    X, Z = probes.x, probes.z
    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("bounded_osc", 0.01, boundary_safe=True))
    counted = RowCounter(d, len(probes))
    fxz = {"fxz": d(X, Z)} if given else {}
    if checker == "biadditivity":
        assert check_biadditivity(counted, rho_rows, probes, **fxz) == check_biadditivity(
            d, rho_rows, probes)
        n_values, n_calls = 5, 5
    elif checker == "first_slot_linearity":
        scalars = default_linearity_scalars(8)
        assert check_first_slot_linearity(counted, rho_rows, scalars, probes, **fxz) == (
            check_first_slot_linearity(d, rho_rows, scalars, probes))
        generic = int(np.sum(np.abs(np.abs(scalars) - 1.0) > 1e-12))
        assert generic == 8
        n_values, n_calls = 1 + len(scalars) + 3 * generic, 3
    else:
        assert check_biderivation(counted, rho_rows, MATRIX2, None, probes) == (
            check_biderivation(d, rho_rows, MATRIX2, None, probes))
        n_values, n_calls = 5, 5
    if given:
        n_values, n_calls = n_values - 1, n_calls - 1
    assert counted.rows == n_values * len(probes)
    assert counted.calls == n_calls
    # f(1 x, z) at the corner scalar 1 is a named value of its own, though
    # 1 x has the bytes of x
    xz = X.tobytes() + Z.tobytes()
    assert counted.blocks[xz] == (not given) + (checker == "first_slot_linearity")


@pytest.mark.parametrize("n", [600, BLOCK_ROWS + 3])
def test_linearity_in_blocks_equals_per_scalar_calls(n):
    # 600 probes fit 3 scalars per stacked call and no route (1,800 rows);
    # past BLOCK_ROWS probes every call takes one scalar
    f = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("bounded_osc", 0.01, boundary_safe=True))
    scalars = np.concatenate([default_linearity_scalars(9), [0.0, 3.0, -4.0j, 1j]])
    probes = draw_probes(4, n, 1.0, seed=9)
    counted = RowCounter(f, n)
    got = check_first_slot_linearity(counted, rho_rows, scalars, probes)
    assert [r.to_json() for r in got] == [
        r.to_json() for r in _linearity_per_scalar(f, rho_rows, scalars, probes)]
    generic = int(np.sum(np.abs(np.abs(scalars) - 1.0) > 1e-12))
    per_call = max(1, BLOCK_ROWS // n)
    assert counted.calls == 1 + -(-len(scalars) // per_call) + generic
    assert counted.rows == (1 + len(scalars) + 3 * generic) * n
