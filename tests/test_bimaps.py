import numpy as np
import pytest

from modstab import _kernels
from modstab import (
    BiMap,
    ConfigError,
    Perturbation,
    PsiEnvelope,
    RhoTildeWeight,
    check_psi_law,
    coeff_norm_fn,
    draw_probes,
    eval_modular,
    iterate_evaluator,
    luxemburg_norm,
    ModularSpec,
    NonFiniteValueError,
    mul,
    preset,
    rho_tilde,
    rho_tilde_contraction_margin,
)
from modstab.bimaps import probe_blocks
from modstab.report import ReportRecord

MATRIX2 = preset("matrix2")
COMPLEX = preset("complex")
NORM = ModularSpec(kind="norm")


def matrix_unit(i, j):
    """Coefficient vector of E_ij in the matrix2 basis."""
    v = np.zeros(4, dtype=np.complex128)
    v[2 * i + j] = 1.0
    return v


def rho_rows(rows):
    return eval_modular(NORM, np.atleast_2d(rows))


def test_commutator_on_matrix_units():
    d = BiMap(algebra=MATRIX2, kernel="commutator")
    out = d(matrix_unit(0, 1), matrix_unit(1, 0))
    assert np.allclose(out, matrix_unit(0, 0) - matrix_unit(1, 1))


def test_kernel_vanishes_on_axes_exactly():
    d = BiMap(algebra=MATRIX2, kernel="commutator",
              perturbation=Perturbation("bounded_osc", 0.3, boundary_safe=True))
    rng = np.random.default_rng(0)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert np.all(d(x, np.zeros(4)) == 0.0)
    assert np.all(d(np.zeros(4), x) == 0.0)


@pytest.mark.parametrize("pert", [
    Perturbation("bounded_osc", 0.2),
    Perturbation("power_env", 0.2, p=0.5),
    Perturbation("quad_slot1", 0.2),
])
def test_perturbations_vanish_on_axes(pert):
    d = BiMap(algebra=MATRIX2, kernel=None, perturbation=pert)
    x = np.ones(4) + 0.5j
    assert np.all(d(x, np.zeros(4)) == 0.0)
    assert np.all(d(np.zeros(4), x) == 0.0)


def test_product_on_complex():
    d = BiMap(algebra=COMPLEX, kernel="product")
    assert d(np.array([2.0 + 0j]), np.array([3.0 + 0j]))[0] == pytest.approx(6.0)


def test_tensor_kernel_matches_named_form():
    d_named = BiMap(algebra=MATRIX2, kernel="product", coeff=2.0)
    d_tensor = BiMap(algebra=MATRIX2, kernel="tensor", tensor=2.0 * MATRIX2.structure)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    Z = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    assert np.allclose(d_named(X, Z), d_tensor(X, Z))


FORM_COEFF = 0.75 - 1.25j


def _explicit_form(form, X, Z):
    if form == "commutator":
        return FORM_COEFF * (mul(X, Z, MATRIX2) - mul(Z, X, MATRIX2))
    if form == "product":
        return FORM_COEFF * mul(X, Z, MATRIX2)
    return FORM_COEFF * mul(np.conj(X), Z, MATRIX2)


@pytest.mark.parametrize("form", ["commutator", "product", "conjugate_product"])
def test_named_form_matches_algebra_formula(form):
    d = BiMap(algebra=MATRIX2, kernel=form, coeff=FORM_COEFF)
    rng = np.random.default_rng(21)
    X = rng.normal(size=(64, 4)) + 1j * rng.normal(size=(64, 4))
    Z = rng.normal(size=(64, 4)) + 1j * rng.normal(size=(64, 4))
    expected = _explicit_form(form, X, Z)
    err = np.max(np.abs(d(X, Z) - expected)) / np.max(np.abs(expected))
    assert err <= 1e-13


def _every_form():
    rng = np.random.default_rng(22)
    t = rng.normal(size=(4, 4, 3)) + 1j * rng.normal(size=(4, 4, 3))
    named = [BiMap(algebra=MATRIX2, kernel=f, coeff=FORM_COEFF)
             for f in ("commutator", "product", "conjugate_product")]
    return named + [BiMap(algebra=MATRIX2, kernel="tensor", tensor=t)]


@pytest.mark.parametrize("k", [-30, 1, 30])
def test_power_of_two_scaling_exact_for_every_form(k):
    # the iteration cancels the kernel exactly only if 2^-k d(2^k x, z)
    # reproduces d(x, z) bit for bit
    rng = np.random.default_rng(23)
    X = rng.normal(size=(32, 4)) + 1j * rng.normal(size=(32, 4))
    Z = rng.normal(size=(32, 4)) + 1j * rng.normal(size=(32, 4))
    s = 2.0**k
    for d in _every_form():
        assert np.array_equal(d(s * X, Z), s * d(X, Z)), d.kernel


def test_empty_map_rejected():
    with pytest.raises(ConfigError):
        BiMap(algebra=COMPLEX, kernel=None, perturbation=None)


def test_tensor_kernel_into_smaller_value_space():
    rng = np.random.default_rng(20)
    t = rng.normal(size=(4, 4, 2)) + 1j * rng.normal(size=(4, 4, 2))
    d = BiMap(algebra=MATRIX2, kernel="tensor", tensor=t,
              perturbation=Perturbation("bounded_osc", 0.1))
    assert d.value_dim == 2
    X = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    Z = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    out = d(X, Z)
    assert out.shape == (5, 2)
    # the oscillation term rides on the truncated copy of z
    kernel_only = BiMap(algebra=MATRIX2, kernel="tensor", tensor=t)
    expected = kernel_only(X, Z) + 0.1 * np.sin(X.real.sum(axis=1))[:, None] * Z[:, :2]
    assert np.allclose(out, expected)


def _map_reference(d, X, Z):
    # the map as zeros plus the product plus a complex (n, value_dim)
    # perturbation term, power_env's spelled out on every column
    out = np.zeros((X.shape[0], d.value_dim), dtype=np.complex128)
    if d.kernel_tensor is not None:
        left = np.conj(X) if d.kernel == "conjugate_product" else X
        out += _kernels.batch_mul(left, Z, d.kernel_tensor)
    g = d.perturbation
    if g is not None:
        pz = d._project(Z)
        norm = _kernels.rho_norm
        if g.name == "bounded_osc":
            term = (g.epsilon * np.sin(_kernels._row_sum(X.real)))[:, None] * pz
        elif g.name == "quad_slot1":
            term = (g.epsilon * X.sum(axis=1) ** 2)[:, None] * pz
        else:
            v = np.zeros(d.value_dim, dtype=np.complex128)
            v[0] = 1.0
            term = (g.epsilon * (norm(X) ** g.p * norm(Z) ** g.p))[:, None] * v[None, :]
        if g.boundary_safe:
            damp = (1.0 - np.exp(-norm(X) ** 2)) * (1.0 - np.exp(-norm(Z) ** 2))
            term = damp[:, None] * term
        out += term
    return out


PERTURBATIONS = [None] + [
    Perturbation(name, eps, p=p, boundary_safe=safe)
    for name, eps, p in (("bounded_osc", 0.3, 2.0), ("power_env", -0.2, 0.5),
                         ("quad_slot1", 0.01, 2.0))
    for safe in (False, True)
]


def _maps_with(pert):
    rng = np.random.default_rng(24)
    maps = [BiMap(algebra=MATRIX2, kernel=form, coeff=c, perturbation=pert)
            for form in ("commutator", "product", "conjugate_product")
            for c in (1.0, FORM_COEFF)]
    for vd in (3, 4, 6):
        t = rng.normal(size=(4, 4, vd)) + 1j * rng.normal(size=(4, 4, vd))
        t[rng.random(t.shape) < 0.4] = rng.choice([1.0, -1.0, 0.0])
        maps.append(BiMap(algebra=MATRIX2, kernel="tensor", tensor=t, perturbation=pert))
    if pert is not None:
        maps.append(BiMap(algebra=MATRIX2, kernel=None, perturbation=pert))
    return maps


def _rows_with_signed_zeros(rng, n):
    a = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    a.real[rng.random((n, 4)) < 0.1] = -0.0
    a.imag[rng.random((n, 4)) < 0.1] = -0.0
    a[0], a[1] = 0.0, complex(-0.0, -0.0)  # rows on the axes
    a.real[2] = -0.0
    return a


def _cbits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("pert", PERTURBATIONS, ids=repr)
def test_map_matches_the_zero_filled_sum_bit_for_bit(pert):
    rng = np.random.default_rng(25)
    X, Z = _rows_with_signed_zeros(rng, 512), _rows_with_signed_zeros(rng, 512)
    for d in _maps_with(pert):
        got = d(X, Z)
        assert got.flags.c_contiguous
        assert np.array_equal(_cbits(got), _cbits(_map_reference(d, X, Z))), d
        assert np.array_equal(_cbits(d(X[7], Z[7])), _cbits(got[7]))


@pytest.mark.parametrize("pert", PERTURBATIONS, ids=repr)
def test_map_rows_do_not_depend_on_the_argument_layout(pert):
    # check_biderivation passes mul(X, Y), the transpose of a (4, n)
    # buffer, as the first argument
    rng = np.random.default_rng(26)
    X, Y, Z = (_rows_with_signed_zeros(rng, 4096) for _ in range(3))
    XY = mul(X, Y, MATRIX2)
    assert not XY.flags.c_contiguous
    for d in _maps_with(pert):
        want = d(X, Z)
        for x, z in ((np.asfortranarray(X), Z), (X, np.asfortranarray(Z)), (X[:, ::-1][:, ::-1], Z)):
            assert np.array_equal(_cbits(d(x, z)), _cbits(want)), d
        assert np.array_equal(_cbits(d(XY, Z)), _cbits(d(np.ascontiguousarray(XY), Z))), d


def test_power_env_into_a_zero_dimensional_value_space_rejected():
    with pytest.raises(ConfigError, match="first coordinate"):
        BiMap(algebra=MATRIX2, kernel="tensor", tensor=np.zeros((4, 4, 0)),
              perturbation=Perturbation("power_env", 0.1))


@pytest.mark.parametrize("pert", [None, Perturbation("power_env", 0.1, p=400.0)], ids=repr)
def test_map_reports_its_first_non_finite_row(pert):
    d = BiMap(algebra=MATRIX2, kernel="commutator", perturbation=pert)
    rng = np.random.default_rng(27)
    X, Z = rng.normal(size=(9, 4)) + 0j, rng.normal(size=(9, 4)) + 0j
    X[5, 1] = complex(0.0, np.inf) if pert is None else 1e3
    X[7, 2] = complex(np.inf, 0.0) if pert is None else 1e3
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteValueError, match="batch row 5") as exc:
            d(X, Z)
    assert exc.value.probe_id == 5


# --- scaling step -----------------------------------------------------------
# one direct step of the scaling operator is the level-1 scaled map


def test_direct_step_fixes_bilinear_maps():
    d = BiMap(algebra=MATRIX2, kernel="commutator")
    rng = np.random.default_rng(1)
    X = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
    Z = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
    for direction in ("ascending", "descending"):
        stepped = iterate_evaluator(d, direction, 1)
        assert np.max(np.abs(stepped(X, Z) - d(X, Z))) <= 1e-12


def test_direct_step_doubles_quadratic_first_slot():
    # f(x, z) = x^2 z on the scalar algebra; half of f(2x, z) is 2 x^2 z
    f = BiMap(algebra=COMPLEX, kernel=None, perturbation=Perturbation("quad_slot1", 1.0))
    stepped = iterate_evaluator(f, "ascending", 1)
    x = np.array([1.3 - 0.2j])
    z = np.array([0.7 + 0.4j])
    assert np.allclose(stepped(x, z), 2.0 * f(x, z))


# --- envelope ---------------------------------------------------------------


def test_psi_defaults_sharp_constants():
    asc = PsiEnvelope(theta=1.0, p=0.5, direction="ascending")
    assert asc.L == pytest.approx(2.0 ** (-0.5))
    desc = PsiEnvelope(theta=1.0, p=2.0, direction="descending")
    assert desc.L == pytest.approx(0.5)


def test_psi_rejects_noncontractive_constant():
    with pytest.raises(ConfigError):
        PsiEnvelope(theta=1.0, p=2.0, direction="ascending")  # default L = 2
    with pytest.raises(ConfigError):
        PsiEnvelope(theta=1.0, p=0.5, L=1.0, direction="ascending")


def test_psi_law_sharp_ascending_margin_zero():
    psi = PsiEnvelope(theta=1.0, p=0.5, direction="ascending")
    probes = draw_probes(4, 64, 1.0, seed=3)
    report = check_psi_law(psi, probes)
    assert report.passed.all()
    [law] = report
    assert law.payload["check"] == "psi_law" and law.payload["decay_ok"]
    assert abs(law.payload["law_margin"]) <= 1e-12
    assert law.payload["decay_ratio"] == pytest.approx(2.0 ** (-0.5), abs=1e-9)


def test_psi_law_sharp_descending_margin_zero():
    psi = PsiEnvelope(theta=1.0, p=2.0, L=0.5, direction="descending")
    probes = draw_probes(4, 64, 1.0, seed=3)
    report = check_psi_law(psi, probes)
    assert report.passed.all()
    assert abs(report[0].payload["law_margin"]) <= 1e-12


def test_psi_law_constant_envelope_decays():
    # p = 0 gives a constant envelope whose scaled sequence is const/2^n
    psi = PsiEnvelope(theta=4.0, p=0.0, direction="ascending")
    probes = draw_probes(4, 32, 1.0, seed=4)
    report = check_psi_law(psi, probes)
    assert report.passed.all()


def test_psi_law_zero_envelope_trivially_ok():
    psi = PsiEnvelope(theta=0.0, p=0.5, direction="ascending")
    probes = draw_probes(4, 32, 1.0, seed=4)
    assert check_psi_law(psi, probes).passed.all()


def test_psi_law_fails_on_the_decay_test_alone():
    # the norm is Euclidean below 100 and cubic past it: the scaling law
    # holds at x and 2x, but the scaled sequence grows at large scales, so
    # the row's lhs is +inf although law_margin passes
    def norm(rows):
        r = _kernels.rho_norm(rows)
        return np.where(r < 100.0, r, r**3 / 1e4)

    psi = PsiEnvelope(theta=1.0, p=0.5, direction="ascending", norm_fn=norm)
    law = check_psi_law(psi, draw_probes(4, 32, 1.0, seed=3))
    [row] = law
    assert row.payload["law_margin"] <= 1e-9 and not row.payload["decay_ok"]
    assert law.lhs[0] == np.inf and not row.passed and law.n_failed == 1


def _psi_law_per_level(psi, probes, n_levels=30, floor_ratio=1e-9, tol=1e-9):
    """The psi law as one psi call per level: the reference the stacked
    check_psi_law must match bit for bit, as the report row it must read
    as, whose pass bit is law_margin <= tol and decay_ok."""
    X, Y = probes.x, probes.y
    if psi.direction == "ascending":
        margins = psi(2.0 * X, 2.0 * X) - 2.0 * psi.L * psi(X, X)
    else:
        margins = psi(X, X) - (psi.L / 2.0) * psi(2.0 * X, 2.0 * X)
    witness = int(np.argmax(margins))
    law_margin = float(margins[witness])
    seq = np.empty((n_levels + 1, X.shape[0]))
    for n in range(n_levels + 1):
        s = 2.0**n
        if psi.direction == "ascending":
            seq[n] = psi(s * X, s * Y) / s
        else:
            seq[n] = s * psi(X / s, X / s)
    start = seq[0]
    floor = floor_ratio * start
    live = seq[:-1] > floor[None, :]
    monotone = np.all((seq[1:] <= seq[:-1] * (1.0 + 1e-12)) | ~live)
    shrunk = (start == 0.0) | (seq[-1] < start) | (seq[-1] <= floor)
    decay_ok = bool(monotone and np.all(shrunk))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(start > 0.0, seq[-1] / start, 0.0)
    decay_ratio = float(np.max(ratios) ** (1.0 / n_levels)) if np.any(start > 0) else 0.0
    payload = {"check": "psi_law", "law_margin": law_margin, "decay_ok": decay_ok,
               "decay_ratio": decay_ratio}
    return ReportRecord(None, "check", payload, (law_margin <= tol) and decay_ok)


PSI_LAW_MODULARS = [
    ModularSpec(kind="norm"),
    ModularSpec(kind="power", p=1.5),
    ModularSpec(kind="orlicz", phi="linear"),
    ModularSpec(kind="orlicz", phi="exp_minus_one"),
]


@pytest.mark.parametrize("radius", [1.0, 1e4])
@pytest.mark.parametrize("direction, p", [("ascending", 0.5), ("descending", 2.0)])
@pytest.mark.parametrize("m", PSI_LAW_MODULARS, ids=["norm", "power-1.5", "orlicz-linear", "orlicz-exp"])
def test_psi_law_stacked_equals_per_level_bit_for_bit(m, direction, p, radius):
    probes = draw_probes(4, 32, radius, seed=19)
    assert not np.any(probes.x[probes.mandatory["zero"]])
    # the reference bisects every call afresh; the checked envelope has the memo
    plain = (lambda rows: luxemburg_norm(m, rows)) if m.kind == "orlicz" else coeff_norm_fn(m)
    want = _psi_law_per_level(PsiEnvelope(p=p, direction=direction, norm_fn=plain), probes)
    got = check_psi_law(PsiEnvelope(p=p, direction=direction, norm_fn=coeff_norm_fn(m)), probes)
    assert list(got) == [want]

    def floats(r):
        return np.array([r.payload["law_margin"], r.payload["decay_ratio"]]).tobytes()

    assert floats(got[0]) == floats(want)


# --- probe sets -------------------------------------------------------------


def test_probes_deterministic_and_bounded():
    a = draw_probes(4, 128, 1.0, seed=11)
    b = draw_probes(4, 128, 1.0, seed=11)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.lam, b.lam)
    for block in (a.x, a.y, a.z, a.w):
        assert np.max(np.abs(block)) <= 1.0 + 1e-12
    assert len(a) == 128


def test_probes_mandatory_tuples():
    p = draw_probes(4, 64, 1.0, seed=2)
    fe = p.mandatory["first_equal"]
    assert np.array_equal(p.x[fe], p.y[fe])
    assert np.all(p.w[fe] == 0.0) and np.all(p.lam[fe] == 1.0)
    sz = p.mandatory["second_zero"]
    assert np.all(p.y[sz] == 0.0) and np.all(p.w[sz] == 0.0)
    hv = p.mandatory["halved"]
    assert np.array_equal(p.x[hv], p.y[hv])
    z = p.mandatory["zero"]
    assert np.all(p.x[z] == 0.0)
    # corner scalars survive at the head of the random block
    corners = p.lam[13:17]
    assert np.array_equal(corners, np.array([1, -1, 1j, -1j], dtype=complex))


def test_probes_minimum_count():
    with pytest.raises(ConfigError):
        draw_probes(4, 8, 1.0, seed=0)


def _whole_stream_probes(dim, count, radius, seed):
    """The probe draw as one pass over each stream: x, y, z, w from one
    generator (real parts, then imaginary), lambda past the 13 mandatory rows
    from a second one, then the mandatory tuples built from rows 13-16."""
    rng, half = np.random.default_rng(seed), radius / np.sqrt(2.0)
    shape = (count, dim)
    x, y, z, w = (rng.uniform(-half, half, shape) + 1j * rng.uniform(-half, half, shape)
                  for _ in range(4))
    lam = np.ones(count, dtype=np.complex128)
    lam[13:17] = [1.0, -1.0, 1j, -1j]
    theta = np.random.default_rng(seed + 1).uniform(0.0, 2.0 * np.pi, count - 17)
    lam[17:] = np.cos(theta) + 1j * np.sin(theta)
    bx, bz, zero = x[13:17].copy(), z[13:17].copy(), np.zeros(dim)
    x[0:4], y[0:4], z[0:4], w[0:4] = bx, bx, bz, zero
    x[4:8], y[4:8], z[4:8], w[4:8] = bx, zero, bz, zero
    x[8:12], y[8:12], z[8:12], w[8:12] = bx / 2.0, bx / 2.0, bz, zero
    x[12], y[12], z[12], w[12] = zero, zero, zero, zero
    return x, y, z, w, lam


@pytest.mark.parametrize("count", [17, 2047, 2048, 2049, 10_000])
@pytest.mark.parametrize("dim", [1, 4, 9])
def test_probe_blocks_concatenate_to_the_whole_stream_draw(count, dim):
    # each block reads its stretch of every stream by position; compared as
    # float64 words, so a -0.0 or a last bit shows too
    for radius, seed in ((1.0, 0), (1.3, 20107 + 104_729)):
        want = _whole_stream_probes(dim, count, radius, seed)
        blocks = list(probe_blocks(dim, count, radius, seed))
        assert [len(b[0]) for b in blocks] == [s.stop - s.start for s in _kernels.row_blocks(count)]
        probes = draw_probes(dim, count, radius, seed)
        drawn = (probes.x, probes.y, probes.z, probes.w, probes.lam)
        for field, parts, whole, ref in zip("xyzwl", zip(*blocks), drawn, want):
            got = np.concatenate(parts)
            assert got.shape == ref.shape and whole.shape == ref.shape, field
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), field
            assert np.array_equal(whole.view(np.uint64), ref.view(np.uint64)), field


# --- induced function-space modular -----------------------------------------


def _weight(theta=1.0):
    psi = PsiEnvelope(theta=theta, p=0.5, direction="ascending")
    return RhoTildeWeight(psi=psi, kind="psi_xx_z0")


def test_rho_tilde_zero_map():
    probes = draw_probes(4, 32, 1.0, seed=6)
    assert rho_tilde(rho_rows, _weight(), lambda x, z: np.zeros_like(x), probes) == 0.0


def test_rho_tilde_unit_ratio():
    # delta = psi(x,x) psi(z,0) * v with a unit vector v: every ratio is 1
    probes = draw_probes(4, 32, 1.0, seed=6)
    w = _weight()
    v = np.zeros(4, dtype=complex)
    v[2] = 1.0

    def delta(x, z):
        return w.values(np.atleast_2d(x), np.atleast_2d(z))[:, None] * v[None, :]

    assert rho_tilde(rho_rows, w, delta, probes) == pytest.approx(1.0, abs=1e-12)


def test_rho_tilde_zero_weight_flag():
    probes = draw_probes(4, 32, 1.0, seed=6)
    w = _weight()

    def delta(x, z):
        out = np.zeros((len(x), 4), dtype=complex)
        out[:, 0] = 1.0  # does not vanish at the zero probe
        return out

    assert rho_tilde(rho_rows, w, delta, probes) == float("inf")


def test_rho_tilde_weight_kinds_differ():
    probes = draw_probes(4, 32, 1.0, seed=8)
    psi = PsiEnvelope(theta=1.0, p=0.5, direction="ascending")
    wa = RhoTildeWeight(psi=psi, kind="psi_xx_z0").values(probes.x, probes.z)
    wb = RhoTildeWeight(psi=psi, kind="psi_x0_z0").values(probes.x, probes.z)
    assert np.allclose(wa, 2.0 * wb)  # psi(x,x) = 2 psi(x,0) for the power form


def test_rho_tilde_convexity_sampled():
    probes = draw_probes(4, 48, 1.0, seed=9)
    w = _weight()
    d1 = BiMap(algebra=MATRIX2, kernel=None, perturbation=Perturbation("bounded_osc", 0.3))
    d2 = BiMap(algebra=MATRIX2, kernel=None, perturbation=Perturbation("power_env", 0.2, p=0.5))
    rng = np.random.default_rng(10)
    for _ in range(20):
        a = rng.uniform(0.0, 1.0)
        b = 1.0 - a

        def mix(x, z, a=a, b=b):
            return a * d1(x, z) + b * d2(x, z)

        lhs = rho_tilde(rho_rows, w, mix, probes)
        rhs = a * rho_tilde(rho_rows, w, d1, probes) + b * rho_tilde(rho_rows, w, d2, probes)
        assert lhs <= rhs + 1e-12


def test_contraction_margin_nonpositive_for_matched_envelope():
    probes = draw_probes(4, 64, 1.0, seed=12)
    w = _weight(theta=0.5)
    d1 = BiMap(algebra=MATRIX2, kernel=None, perturbation=Perturbation("power_env", 0.1, p=0.5))
    d2 = BiMap(algebra=MATRIX2, kernel=None, perturbation=Perturbation("bounded_osc", 0.05))
    lhs, rhs, margin = rho_tilde_contraction_margin(rho_rows, w, d1, d2, probes)
    assert np.isfinite(lhs) and np.isfinite(rhs)
    assert margin <= 1e-9
