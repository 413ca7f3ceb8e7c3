"""Residual checkers: the two four-point functional inequalities, slotwise
additivity, first-slot homogeneity (direct and via the three-unimodular
route), the a-priori stability bound and the telescoping table (both on
the iterates of the run's ``LevelTable``), the Leibniz-rule residuals,
and the exact-scaling certificate.

Every checker returns its verdict as a ``report.CheckResult``: one row
per probe (or per scalar, or one row for a probe-sup), carrying the
measured left side, the majorant and the tolerance; a row passes iff
lhs - rhs <= tol.  Identity-type checks take ``IDENTITY_TOL`` (by default,
where the caller may pass a tol), inequality margins ``INEQUALITY_TOL``.
A two-slot check returns one result per slot.
"""

import numpy as np

from ._kernels import row_blocks
from .algebra import mul, sample_unit_circle, three_unimodular_decomposition
from .bimaps import not_finite_at
from .errors import ConfigError, NonFiniteValueError, PreconditionError
from .report import ABSENT, CheckResult
from .stabilize import hyers_bound

IDENTITY_TOL = 1e-10
INEQUALITY_TOL = 1e-9


def _per_probe(check, lhs, rhs, tol, advisory=False, **extras):
    """One row per probe (or scalar) i, whose payload is probe_id = i, lhs,
    rhs, margin and ``extras``."""
    result = CheckResult(check, lhs, rhs, tol, advisory=advisory)
    result.columns = {"probe_id": np.arange(len(result)), "lhs": result.lhs, "rhs": result.rhs,
                      "margin": result.margin, **extras}
    return result


def inequality_parts(f, rho_fn, s, X, Y, Z, W, lam, which="A", keep=None):
    """Raw (lhs, rhs) modular values of inequality A or B on argument
    arrays, without the envelope term.  Shared by the checkers and by the
    envelope calibration, which maximizes (lhs - rhs) over enlarged tuple
    families.

    ``keep``, when given, is called on the left side once it is evaluated
    and returns the rows (an index array) whose right side is wanted; the
    right side's map and modular calls then take those rows only (none when
    no row is kept), and every other row's rhs is 0.  A map error there
    names the row of the batch, as a call on all rows would.  Calibration
    keeps the rows whose lhs can raise theta: rho >= 0, so a right side can
    only lower lhs - rhs."""
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
    else:
        lhs = rho_fn(
            4.0 * (f(lamc * xp / 2.0, zm) + f(lamc * xm / 2.0, zp) - lamc * fxz + lamc * f(Y, W))
        )
    if keep is not None:
        rows = keep(lhs)
        if not rows.size:
            return lhs, np.zeros_like(lhs)
        f = _at_rows(f, rows)
        xp, xm, zp, zm, fxz, Y, W = (a[rows] for a in (xp, xm, zp, zm, fxz, Y, W))
    if which == "A":
        rhs = rho_fn(4.0 * s * (f(xp / 2.0, zm) + f(xm / 2.0, zp) - fxz + f(Y, W)))
    else:
        rhs = rho_fn(s * (f(xp, zp) + f(xp, zm) + f(xm, zp) + f(xm, zm) - 4.0 * fxz))
    if keep is not None:
        rhs, kept = np.zeros_like(lhs), rhs
        rhs[rows] = kept
    return lhs, rhs


def _at_rows(f, rows):
    """The map ``f`` on arguments taken at ``rows`` of a batch: a map error
    names its row of the batch, not its place among ``rows``."""
    def f_at_rows(x, z):
        try:
            return f(x, z)
        except NonFiniteValueError as e:
            if e.probe_id is None:
                raise
            raise not_finite_at(int(rows[e.probe_id])) from None

    return f_at_rows


def _check_inequality(which, f, rho_fn, s, psi, probes, parts):
    X, Y, Z, W = probes.x, probes.y, probes.z, probes.w
    if parts is None:
        parts = inequality_parts(f, rho_fn, s, X, Y, Z, W, probes.lam, which=which)
    lhs, rhs = parts
    if psi is not None:
        rhs = rhs + psi(X, Y) * psi(Z, W)
    return _per_probe(f"inequality_{which}", lhs, rhs, INEQUALITY_TOL)


def check_inequality_A(f, rho_fn, s, psi, probes, parts=None):
    """Four-point defect against the s-weighted average plus envelope.

    lhs = rho( f(l(x+y), z+w) + f(l(x+y), z-w) + f(l(x-y), z+w)
             + f(l(x-y), z-w) - 4 l f(x,z) )
    rhs = rho( 4s [ f((x+y)/2, z-w) + f((x-y)/2, z+w) - f(x,z) + f(y,w) ] )
        + psi(x,y) psi(z,w)        (envelope omitted when psi is None)

    ``parts`` are ``inequality_parts``' (lhs, rhs) on the probes when the
    caller already has them.
    """
    return _check_inequality("A", f, rho_fn, s, psi, probes, parts)


def check_inequality_B(f, rho_fn, s, psi, probes, parts=None):
    """Mirror of inequality A with the s-weight on the four-point side.

    lhs = rho( 4 [ f(l(x+y)/2, z-w) + f(l(x-y)/2, z+w)
                  - l f(x,z) + l f(y,w) ] )
    rhs = rho( s [ f(x+y, z+w) + f(x+y, z-w) + f(x-y, z+w) + f(x-y, z-w)
                  - 4 f(x,z) ] ) + psi(x,y) psi(z,w)

    The bracket vanishes identically for bi-additive maps that are
    unimodular-homogeneous in the first slot, and specializing y = w = 0
    reduces the left side to rho(8 f(x/2, z) - 4 f(x, z)), the seed of the
    descending defect table.  ``parts`` as for inequality A.
    """
    return _check_inequality("B", f, rho_fn, s, psi, probes, parts)


def check_biadditivity(f, rho_fn, probes, tol=IDENTITY_TOL, fxz=None):
    """Probe-sup additivity defects in each slot, using (x, y) and (z, w)
    as the increment pairs: one one-row result per slot, whose payload is
    the sup (``residual``), its probe (``witness``) and ``tol``.  ``fxz``
    is f(x, z) on the probes when the caller already has it (a run's level
    table does)."""
    X, Y, Z, W = probes.x, probes.y, probes.z, probes.w
    # f(x, z) serves both slots; the map calls keep their order
    fXYZ = f(X + Y, Z)
    fXZ = f(X, Z) if fxz is None else fxz
    slot1 = rho_fn(fXYZ - fXZ - f(Y, Z))
    slot2 = rho_fn(f(X, Z + W) - fXZ - f(X, W))
    results = []
    for name, residuals in (("biadditivity_slot1", slot1), ("biadditivity_slot2", slot2)):
        witness = int(np.argmax(residuals))
        sup = float(residuals[witness])
        results.append(CheckResult.one(name, sup, 0.0, tol,
                                       {"residual": sup, "witness": witness, "tol": tol}))
    return tuple(results)


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
    """f(c x, z) for the scalars c in one map call, as a (len(scalars), n,
    value_dim) stack; a row's value does not depend on its batch."""
    vals = f((scalars[:, None, None] * X).reshape(-1, X.shape[1]), np.tile(Z, (len(scalars), 1)))
    return vals.reshape(len(scalars), X.shape[0], vals.shape[1])


def _sup_rho(rho_fn, stack):
    """max over probes of rho, for each block of an (m, n, value_dim) stack."""
    m, n, k = stack.shape
    return rho_fn(stack.reshape(m * n, k)).reshape(m, n).max(axis=1)


def check_first_slot_linearity(f, rho_fn, scalars, probes, tol=IDENTITY_TOL, fxz=None):
    """Homogeneity f(l x, z) = l f(x, z) per scalar.

    Unimodular scalars are checked directly.  Generic scalars additionally
    go through the constructive route: pick an integer M > 4|l|, decompose
    3l/M into unimodular mu1+mu2+mu3, and compare f(l x, z) against
    (M/3) [f(mu1 x, z) + f(mu2 x, z) + f(mu3 x, z)].  Both residuals are
    recorded, one row per scalar; the row's lhs is the worse of the two,
    ``np.maximum`` of them, so a NaN residual fails the row.  The scalars go
    through the map in stacked calls of at most ``_kernels.BLOCK_ROWS``
    rows, as many scalars (or routes) per call as fit, each call followed
    by one modular call.  ``fxz`` is f(x, z) on the probes when the caller
    already has it (a run's level table does).
    """
    X, Z = probes.x, probes.z
    n = X.shape[0]
    lams = np.asarray(scalars, dtype=np.complex128).reshape(-1)
    is_generic = np.array([abs(abs(lam) - 1.0) > 1e-12 for lam in lams], dtype=bool)
    generic = np.flatnonzero(is_generic).tolist()
    Ms = np.array([int(np.floor(4.0 * abs(lams[i]))) + 1 for i in generic])
    mus = np.array([three_unimodular_decomposition(3.0 * lams[i] / M).as_array()
                    for i, M in zip(generic, Ms)]).reshape(len(generic), 3)
    fXZ = f(X, Z) if fxz is None else fxz
    direct = np.empty(len(lams))
    kept = []  # f(l x, z) of the generic scalars, for their routes
    for b in row_blocks(len(lams), n):
        fL = _first_slot_stack(f, lams[b], X, Z)
        direct[b] = _sup_rho(rho_fn, fL - lams[b, None, None] * fXZ)
        kept.append(fL[is_generic[b]])
    fLXZ = np.concatenate(kept) if generic else None
    route = np.empty(len(generic))
    for b in row_blocks(len(generic), 3 * n):
        fMU = _first_slot_stack(f, mus[b].reshape(-1), X, Z).reshape(len(Ms[b]), 3, *fXZ.shape)
        route_vec = (Ms[b] / 3.0)[:, None, None] * (fMU[:, 0] + fMU[:, 1] + fMU[:, 2])
        route[b] = _sup_rho(rho_fn, fLXZ[b] - route_vec)
    worst = direct.copy()
    worst[generic] = np.maximum(direct[generic], route)
    routes = dict(zip(generic, zip(route.tolist(), Ms.tolist())))  # scalar index -> (route, M)
    return _per_probe(
        "first_slot_linearity", worst, np.zeros(len(lams)), tol,
        lam=[[lam.real, lam.imag] for lam in lams.tolist()],
        direct=direct,
        route=[routes[i][0] if i in routes else ABSENT for i in range(len(lams))],
        M=[routes[i][1] if i in routes else ABSENT for i in range(len(lams))],
    )


def check_stability_bound(d_vals, D_vals, psi, rho_fn, probes):
    """Per-probe margin of rho(D(x,z) - d(x,z)) against the a-priori bound
    psi(x,x) psi(z,0) / (2(1-L)).

    ``d_vals`` and ``D_vals`` are the map and its limit on the probes, as
    (n, value_dim) arrays: a run reads both from its level table (levels 0
    and N), so the check evaluates neither again.  Whenever 2^(1-p) > 1,
    the records also carry ``corollary_rhs``, the closed-form constant
    theta/(2^(1-p) - 1) |x|^p |z|^p with theta = ``psi.theta``, for
    side-by-side reporting; it is never asserted.
    """
    X, Z = probes.x, probes.z
    lhs = rho_fn(D_vals - d_vals)
    rhs = hyers_bound(psi, X, Z)
    extras = {}
    denom = 2.0 ** (1.0 - psi.p) - 1.0
    if denom > 0:
        nx = psi.norm_fn(X) ** psi.p
        nz = psi.norm_fn(Z) ** psi.p
        extras = {"corollary_rhs": psi.theta / denom * nx * nz}
    return _per_probe("stability_bound", lhs, rhs, INEQUALITY_TOL, **extras)


def _auto_telescope_form(direction, weight_kind):
    if direction == "ascending":
        return "ascending"
    return "kappa_first_zero" if weight_kind == "psi_x0_z0" else "kappa_both_slots"


# The telescoping majorants bound the defect against the level-0 map.
# Ascending uses the geometric partial sum
#     sum_{i<=n} 2^-i psi(2^(i-1) x, 2^(i-1) x) psi(z, 0),
# whose full sum is bounded by psi(x,x) psi(z,0)/(2(1-L)).  Descending uses
# the kappa-weighted table (two variants, one keyed by psi at the halved
# diagonal, one by psi(. , 0)); at kappa = 2 the table coincides with the
# honest unrolled recursion.  The full bound is ``hyers_bound`` on the probes.


def _majorant_terms(form, psi, X, span):
    """The majorant's term psi_i for each level i of ``span``, from one
    psi call on the stacked scaled probes: a (k, P) array.  psi_i is
    psi(2^(i-1) x, 2^(i-1) x) ascending, psi(x / 2^i, x / 2^i) for
    kappa_both_slots and psi(x / 2^(i-1), 0) for kappa_first_zero."""
    n, dim = X.shape
    if form == "ascending":
        u = np.array([2.0 ** (i - 1) for i in span])[:, None, None] * X
    elif form == "kappa_both_slots":
        u = X / np.array([2.0**i for i in span])[:, None, None]
    else:  # kappa_first_zero
        u = X / np.array([2.0 ** (i - 1) for i in span])[:, None, None]
    u = u.reshape(len(span) * n, dim)
    return psi(u, np.zeros_like(u) if form == "kappa_first_zero" else u).reshape(len(span), n)


def _majorants(form, kappa, terms):
    """The majorants of levels 1..N before their psi(z, 0) factor, an
    (N, P) array, from their ``terms`` psi_1..psi_N.  The coefficients are
    Python floats.

    Ascending, row n adds 2^-n psi_n to the row before it, in level order,
    from a +0.0 start row.  Descending, row n sums c_n,i psi_i over
    i = 1..n in that order, with c_n,1 = kappa^(n-1) / 2^(n-1) and
    c_n,i = kappa^n / 2^(n-i+1): one vector update per i over the rows
    n >= i."""
    span = range(1, len(terms) + 1)
    if form == "ascending":
        steps = np.array([2.0 ** (-n) for n in span])[:, None] * terms
        return np.add.accumulate(np.concatenate([np.zeros_like(terms[:1]), steps]), axis=0)[1:]
    rows = np.array([kappa ** (n - 1) / 2.0 ** (n - 1) for n in span])[:, None] * terms[0]
    for i in span[1:]:
        c = [kappa**n / 2.0 ** (n - i + 1) for n in span[i - 1:]]
        rows[i - 1:] += np.array(c)[:, None] * terms[i - 1]
    return rows


def check_telescoping(table, psi, rho_fn, n, weight_kind, kappa):
    """The telescoping table of levels 1..n of ``table`` against level 0,
    one row per level: ``kappa_margin`` is the probe-max of the defect
    rho(T[l] - T[0]) minus the level's majorant times psi(z, 0), and
    ``final_margin`` the defect minus ``hyers_bound``.  A level passes iff
    both are at most ``INEQUALITY_TOL`` (its lhs is the larger, NaN if
    either is).  The majorant form follows the direction and ``weight_kind``;
    each row has the bits it gets alone.  n is the run's stopping level."""
    X, Z = table.cfg.probes.x, table.cfg.probes.z
    form = _auto_telescope_form(table.cfg.direction, weight_kind)
    origin, defect = table[0], []
    for _, block in table.span(1, n):
        k, p, vd = block.shape
        defect.append(rho_fn((block - origin).reshape(k * p, vd)).reshape(k, p))
    defect = np.concatenate(defect)
    terms = np.concatenate([_majorant_terms(form, psi, X, range(b.start + 1, b.stop + 1))
                            for b in row_blocks(n, len(X))])
    majorant = _majorants(form, kappa, terms) * psi(Z, np.zeros_like(Z))
    kappa_margin = (defect - majorant).max(axis=1)
    final_margin = (defect - hyers_bound(psi, X, Z)).max(axis=1)
    columns = {"level": np.arange(1, n + 1), "kappa_margin": kappa_margin,
               "final_margin": final_margin}
    return CheckResult("telescoping", np.maximum(kappa_margin, final_margin), 0.0, INEQUALITY_TOL,
                       columns)


def check_biderivation(f, rho_fn, alg, psi, probes, assert_slot2=False):
    """Leibniz-rule residuals in each slot against the optional envelope.

    Slot one measures rho(f(xy, z) - f(x,z) y - x f(y,z)); slot two the
    symmetric residual in the second argument.  The conclusion names a
    derivation in *each* component, so the second slot is always measured
    and reported; by default only slot one is asserted (advisory slot-two
    records), since the hypothesis constrains slot one alone.  Returns
    one result per slot.
    """
    if getattr(f, "value_dim", alg.dim) != alg.dim:
        raise ConfigError("biderivation residuals need the value space to be the algebra")
    X, Y, Z, W = probes.x, probes.y, probes.z, probes.w
    env = psi(X, Y) * psi(Z, W) if psi is not None else np.zeros(len(probes.x))

    # f(x, z) serves both slots; the map calls keep their order
    fXYZ, fXZ = f(mul(X, Y, alg), Z), f(X, Z)
    lhs1 = rho_fn(fXYZ - mul(fXZ, Y, alg) - mul(X, f(Y, Z), alg))
    slot1 = _per_probe("biderivation_slot1", lhs1, env, IDENTITY_TOL)

    lhs2 = rho_fn(
        f(X, mul(Z, W, alg)) - mul(fXZ, W, alg) - mul(Z, f(X, W), alg)
    )
    slot2 = _per_probe("biderivation_slot2", lhs2, env, IDENTITY_TOL, advisory=not assert_slot2)
    return slot1, slot2


def check_superstability(d, rho_fn, probes):
    """Passes iff the map already satisfies the exact doubling law
    d(2x, z) = 2 d(x, z) on every probe (to ``IDENTITY_TOL``), being its own
    limit.  One row, whose payload is the probe-sup ``sup_residual``."""
    X, Z = probes.x, probes.z
    res = rho_fn(d(2.0 * X, Z) - 2.0 * d(X, Z))
    sup = float(np.max(res))
    return CheckResult.one("superstability", sup, 0.0, IDENTITY_TOL, {"sup_residual": sup})
