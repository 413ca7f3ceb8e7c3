import numpy as np
import pytest

from modstab import (
    BiMap,
    ConfigError,
    Perturbation,
    PsiEnvelope,
    RhoTildeWeight,
    check_psi_law,
    draw_probes,
    eval_modular,
    iterate_evaluator,
    matrix_unit,
    ModularSpec,
    mul,
    preset,
    rho_tilde,
    rho_tilde_contraction_margin,
)

MATRIX2 = preset("matrix2")
COMPLEX = preset("complex")
NORM = ModularSpec(kind="norm")


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
    assert report.passed
    assert abs(report.law_margin) <= 1e-12
    assert report.decay_ratio == pytest.approx(2.0 ** (-0.5), abs=1e-9)


def test_psi_law_sharp_descending_margin_zero():
    psi = PsiEnvelope(theta=1.0, p=2.0, L=0.5, direction="descending")
    probes = draw_probes(4, 64, 1.0, seed=3)
    report = check_psi_law(psi, probes)
    assert report.passed
    assert abs(report.law_margin) <= 1e-12


def test_psi_law_constant_envelope_decays():
    # p = 0 gives a constant envelope whose scaled sequence is const/2^n
    psi = PsiEnvelope(theta=4.0, p=0.0, direction="ascending")
    probes = draw_probes(4, 32, 1.0, seed=4)
    report = check_psi_law(psi, probes)
    assert report.passed


def test_psi_law_zero_envelope_trivially_ok():
    psi = PsiEnvelope(theta=0.0, p=0.5, direction="ascending")
    probes = draw_probes(4, 32, 1.0, seed=4)
    assert check_psi_law(psi, probes).passed


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
