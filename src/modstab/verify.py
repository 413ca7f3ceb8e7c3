"""Residual checkers: the two four-point functional inequalities, slotwise
additivity, first-slot homogeneity (direct and via the three-unimodular
route), the a-priori stability bound, the Leibniz-rule residuals, and the
exact-scaling certificate.

Every checker sweeps a probe set and emits one record per probe (or per
scalar), carrying the measured left side, the majorant, and the margin;
margin <= tolerance passes.  Identity-type checks default to 1e-10
absolute, inequality margins to 1e-9.
"""

from dataclasses import dataclass, field

import numpy as np

from .algebra import mul, sample_unit_circle, three_unimodular_decomposition
from .errors import ConfigError, PreconditionError
from .stabilize import hyers_bound

IDENTITY_TOL = 1e-10
INEQUALITY_TOL = 1e-9


@dataclass(frozen=True)
class CheckRecord:
    check_name: str
    probe_id: int
    lhs: float
    rhs: float
    margin: float
    passed: bool
    advisory: bool = False
    extra: dict = field(default_factory=dict)


def _records(name, lhs, rhs, tol, advisory=False, extras=None):
    margins = lhs - rhs
    out = []
    for i in range(len(lhs)):
        extra = extras[i] if extras is not None else {}
        out.append(
            CheckRecord(
                check_name=name,
                probe_id=i,
                lhs=float(lhs[i]),
                rhs=float(rhs[i]),
                margin=float(margins[i]),
                passed=bool(margins[i] <= tol),
                advisory=advisory,
                extra=extra,
            )
        )
    return out


def inequality_parts(f, rho_fn, s, X, Y, Z, W, lam, which="A"):
    """Raw (lhs, rhs) modular values of inequality A or B on argument
    arrays, without the envelope term.  Shared by the checkers and by the
    envelope calibration, which maximizes (lhs - rhs) over enlarged tuple
    families."""
    if abs(s) >= 1.0:
        raise PreconditionError("|s| must be < 1")
    if not getattr(f, "zero_boundary", True):
        raise PreconditionError("the map must vanish on the axes (zero_boundary)")
    if which not in ("A", "B"):
        raise ConfigError(f"unknown inequality {which!r}")
    lamc = lam[:, None]
    xp, xm = X + Y, X - Y
    zp, zm = Z + W, Z - W
    # f(x, z) is shared by both sides, and each side is reduced to its
    # modular before the other is built, so one (n, value_dim) side vector
    # is alive at a time
    fxz = f(X, Z)
    if which == "A":
        lhs = rho_fn(
            f(lamc * xp, zp)
            + f(lamc * xp, zm)
            + f(lamc * xm, zp)
            + f(lamc * xm, zm)
            - 4.0 * lamc * fxz
        )
        rhs = rho_fn(4.0 * s * (f(xp / 2.0, zm) + f(xm / 2.0, zp) - fxz + f(Y, W)))
    else:
        lhs = rho_fn(
            4.0 * (f(lamc * xp / 2.0, zm) + f(lamc * xm / 2.0, zp) - lamc * fxz + lamc * f(Y, W))
        )
        rhs = rho_fn(s * (f(xp, zp) + f(xp, zm) + f(xm, zp) + f(xm, zm) - 4.0 * fxz))
    return lhs, rhs


def check_inequality_A(f, rho_fn, s, psi, probes, tol=INEQUALITY_TOL):
    """Four-point defect against the s-weighted average plus envelope.

    lhs = rho( f(l(x+y), z+w) + f(l(x+y), z-w) + f(l(x-y), z+w)
             + f(l(x-y), z-w) - 4 l f(x,z) )
    rhs = rho( 4s [ f((x+y)/2, z-w) + f((x-y)/2, z+w) - f(x,z) + f(y,w) ] )
        + psi(x,y) psi(z,w)        (envelope omitted when psi is None)
    """
    X, Y, Z, W = probes.x, probes.y, probes.z, probes.w
    lhs, rhs = inequality_parts(f, rho_fn, s, X, Y, Z, W, probes.lam, which="A")
    if psi is not None:
        rhs = rhs + psi(X, Y) * psi(Z, W)
    return _records("inequality_A", lhs, rhs, tol)


def check_inequality_B(f, rho_fn, s, psi, probes, tol=INEQUALITY_TOL):
    """Mirror of inequality A with the s-weight on the four-point side.

    lhs = rho( 4 [ f(l(x+y)/2, z-w) + f(l(x-y)/2, z+w)
                  - l f(x,z) + l f(y,w) ] )
    rhs = rho( s [ f(x+y, z+w) + f(x+y, z-w) + f(x-y, z+w) + f(x-y, z-w)
                  - 4 f(x,z) ] ) + psi(x,y) psi(z,w)

    The bracket vanishes identically for bi-additive maps that are
    unimodular-homogeneous in the first slot, and specializing y = w = 0
    reduces the left side to rho(8 f(x/2, z) - 4 f(x, z)), the seed of the
    descending defect table.
    """
    X, Y, Z, W = probes.x, probes.y, probes.z, probes.w
    lhs, rhs = inequality_parts(f, rho_fn, s, X, Y, Z, W, probes.lam, which="B")
    if psi is not None:
        rhs = rhs + psi(X, Y) * psi(Z, W)
    return _records("inequality_B", lhs, rhs, tol)


@dataclass(frozen=True)
class BiadditivityReport:
    slot1_sup: float
    slot1_witness: int
    slot2_sup: float
    slot2_witness: int
    passed: bool


def check_biadditivity(f, rho_fn, probes, tol=IDENTITY_TOL):
    """Probe-sup additivity defects in each slot, using (x, y) and (z, w)
    as the increment pairs."""
    X, Y, Z, W = probes.x, probes.y, probes.z, probes.w
    # f(x, z) serves both slots; the map calls keep their order
    fXYZ, fXZ = f(X + Y, Z), f(X, Z)
    slot1 = rho_fn(fXYZ - fXZ - f(Y, Z))
    slot2 = rho_fn(f(X, Z + W) - fXZ - f(X, W))
    i1, i2 = int(np.argmax(slot1)), int(np.argmax(slot2))
    s1, s2 = float(slot1[i1]), float(slot2[i2])
    return BiadditivityReport(
        slot1_sup=s1, slot1_witness=i1, slot2_sup=s2, slot2_witness=i2,
        passed=(s1 <= tol and s2 <= tol),
    )


def default_linearity_scalars(seed=0):
    """Corner scalars, 16 seeded circle points, and generic values with
    modulus up to 4 for the decomposition route."""
    circle = sample_unit_circle(seed, 20)
    rng = np.random.default_rng(seed + 1)
    r = rng.uniform(0.3, 4.0, 4)
    ang = rng.uniform(0.0, 2.0 * np.pi, 4)
    generic = np.concatenate(
        [np.array([2.0 + 1.0j, -3.7 + 0.1j, 0.2 - 2.2j, 3.9j]), r * np.exp(1j * ang)]
    )
    return np.concatenate([circle, generic])


def _first_slot_stack(f, scalars, X, Z):
    """f(c x, z) for every scalar c in one map call, as a (len(scalars), n,
    value_dim) stack; a row's value does not depend on its batch."""
    vals = f((scalars[:, None, None] * X).reshape(-1, X.shape[1]), np.tile(Z, (len(scalars), 1)))
    return vals.reshape(len(scalars), X.shape[0], vals.shape[1])


def _sup_rho(rho_fn, stack):
    """max over probes of rho, for each block of an (m, n, value_dim) stack."""
    m, n, k = stack.shape
    return rho_fn(stack.reshape(m * n, k)).reshape(m, n).max(axis=1)


def check_first_slot_linearity(f, rho_fn, scalars, probes, tol=IDENTITY_TOL):
    """Homogeneity f(l x, z) = l f(x, z) per scalar.

    Unimodular scalars are checked directly.  Generic scalars additionally
    go through the constructive route: pick an integer M > 4|l|, decompose
    3l/M into unimodular mu1+mu2+mu3, and compare f(l x, z) against
    (M/3) [f(mu1 x, z) + f(mu2 x, z) + f(mu3 x, z)].  Both residuals are
    recorded; the pass verdict takes the worse of the two.  f(l x, z) is
    evaluated for all scalars in one map call and the route values in a
    second, each followed by one modular call.
    """
    X, Z = probes.x, probes.z
    lams = np.asarray(scalars, dtype=np.complex128).reshape(-1)
    generic = [i for i, lam in enumerate(lams) if abs(abs(lam) - 1.0) > 1e-12]
    Ms = [int(np.floor(4.0 * abs(lams[i]))) + 1 for i in generic]
    mus = [three_unimodular_decomposition(3.0 * lams[i] / M).as_array()
           for i, M in zip(generic, Ms)]
    fXZ = f(X, Z)
    fLXZ = _first_slot_stack(f, lams, X, Z)
    direct = _sup_rho(rho_fn, fLXZ - lams[:, None, None] * fXZ)
    routes = {}  # index of a generic scalar -> (route residual, M)
    if generic:
        fMU = _first_slot_stack(f, np.concatenate(mus), X, Z).reshape(len(generic), 3, *fXZ.shape)
        route_vec = (np.array(Ms) / 3.0)[:, None, None] * (fMU[:, 0] + fMU[:, 1] + fMU[:, 2])
        route = _sup_rho(rho_fn, fLXZ[generic] - route_vec)
        routes = dict(zip(generic, zip(route.tolist(), Ms)))
    out = []
    for idx, lam in enumerate(lams):
        worst = float(direct[idx])
        extra = {"lam": [float(lam.real), float(lam.imag)], "direct": worst}
        if idx in routes:
            extra["route"], extra["M"] = routes[idx]
            worst = max(worst, extra["route"])
        out.append(
            CheckRecord(
                check_name="first_slot_linearity",
                probe_id=idx,
                lhs=worst,
                rhs=0.0,
                margin=worst,
                passed=worst <= tol,
                extra=extra,
            )
        )
    return out


def check_stability_bound(
    d_vals, D_vals, psi, rho_fn, probes, tol=INEQUALITY_TOL, corollary_theta=None
):
    """Per-probe margin of rho(D(x,z) - d(x,z)) against the a-priori bound
    psi(x,x) psi(z,0) / (2(1-L)).

    ``d_vals`` and ``D_vals`` are the map and its limit on the probes, as
    (n, value_dim) arrays: a run reads both from its level table (levels 0
    and N), so the check evaluates neither again.  When corollary_theta is
    given (power envelope scenarios), the records also carry the
    closed-form constant theta/(2^(1-p) - 1) |x|^p |z|^p for side-by-side
    reporting; it is never asserted.
    """
    X, Z = probes.x, probes.z
    lhs = rho_fn(D_vals - d_vals)
    rhs = hyers_bound(psi, X, Z)
    extras = None
    denom = 2.0 ** (1.0 - psi.p) - 1.0
    if corollary_theta is not None and denom > 0:
        nx = psi.norm_fn(X) ** psi.p
        nz = psi.norm_fn(Z) ** psi.p
        printed = corollary_theta / denom * nx * nz
        extras = [{"corollary_rhs": float(v)} for v in printed]
    return _records("stability_bound", lhs, rhs, tol, extras=extras)


def check_biderivation(f, rho_fn, alg, psi, probes, tol=IDENTITY_TOL, assert_slot2=False):
    """Leibniz-rule residuals in each slot against the optional envelope.

    Slot one measures rho(f(xy, z) - f(x,z) y - x f(y,z)); slot two the
    symmetric residual in the second argument.  The conclusion names a
    derivation in *each* component, so the second slot is always measured
    and reported; by default only slot one is asserted (advisory slot-two
    records), since the hypothesis constrains slot one alone.
    """
    if getattr(f, "value_dim", alg.dim) != alg.dim:
        raise ConfigError("biderivation residuals need the value space to be the algebra")
    X, Y, Z, W = probes.x, probes.y, probes.z, probes.w
    env = psi(X, Y) * psi(Z, W) if psi is not None else np.zeros(len(probes.x))

    # f(x, z) serves both slots; the map calls keep their order
    fXYZ, fXZ = f(mul(X, Y, alg), Z), f(X, Z)
    lhs1 = rho_fn(fXYZ - mul(fXZ, Y, alg) - mul(X, f(Y, Z), alg))
    recs = _records("biderivation_slot1", lhs1, env, tol)

    lhs2 = rho_fn(
        f(X, mul(Z, W, alg)) - mul(fXZ, W, alg) - mul(Z, f(X, W), alg)
    )
    recs += _records("biderivation_slot2", lhs2, env, tol, advisory=not assert_slot2)
    return recs


@dataclass(frozen=True)
class SuperstabilityReport:
    sup_residual: float
    is_superstable: bool


def check_superstability(d, rho_fn, probes, tol=IDENTITY_TOL):
    """True iff the map already satisfies the exact doubling law
    d(2x, z) = 2 d(x, z) on every probe; such a map is its own limit."""
    X, Z = probes.x, probes.z
    res = rho_fn(d(2.0 * X, Z) - 2.0 * d(X, Z))
    sup = float(np.max(res))
    return SuperstabilityReport(sup_residual=sup, is_superstable=sup <= tol)
