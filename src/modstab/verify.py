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
from .bimaps import _stacked_call, map_pairs
from .errors import ConfigError, PreconditionError
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

    Each side's map values, f(x, z) with the left side's, come from one
    ``bimaps.map_pairs`` call, so a map call spans at most
    ``_kernels.BLOCK_ROWS`` rows, and each side is reduced to its modular
    before the other is evaluated.  A sum that overflows gives an infinite
    or NaN value, not a numpy warning.

    ``keep``, when given, is called on the left side once it is evaluated
    and returns the rows (an index array) whose right side is wanted; the
    right side's map and modular calls then take those rows only (none when
    no row is kept), and every other row's rhs is 0.  A map error there
    names the row of the batch, as a call on all rows would.  Calibration
    keeps the rows whose lhs can raise theta: rho >= 0, so a right side can
    only lower lhs - rhs."""
    if abs(s) >= 1.0:
        raise PreconditionError("|s| must be < 1")
    if which not in ("A", "B"):
        raise ConfigError(f"unknown inequality {which!r}")
    lamc = lam[:, None]
    xp, xm = X + Y, X - Y
    zp, zm = Z + W, Z - W
    # fpm is f at (a multiple of x + y, z - w), fmp at (one of x - y, z + w),
    # and so on; fyw is f(y, w)
    with np.errstate(over="ignore", invalid="ignore"):
        if which == "A":
            fxz, fpp, fpm, fmp, fmm = map_pairs(f, [
                (X, Z), (lamc * xp, zp), (lamc * xp, zm), (lamc * xm, zp), (lamc * xm, zm)])
            lhs = rho_fn(fpp + fpm + fmp + fmm - 4.0 * lamc * fxz)
        else:
            fxz, fpm, fmp, fyw = map_pairs(f, [
                (X, Z), (lamc * xp / 2.0, zm), (lamc * xm / 2.0, zp), (Y, W)])
            lhs = rho_fn(4.0 * (fpm + fmp - lamc * fxz + lamc * fyw))
        rows = None
        if keep is not None:
            rows = keep(lhs)
            if not rows.size:
                return lhs, np.zeros_like(lhs)
            xp, xm, zp, zm, fxz, Y, W = (a[rows] for a in (xp, xm, zp, zm, fxz, Y, W))
        # an explicit multiply, never numpy's in-place reuse of a large
        # temporary, whose complex loop rounds differently: a row's bits must
        # not depend on its batch
        if which == "A":
            fpm, fmp, fyw = map_pairs(f, [(xp / 2.0, zm), (xm / 2.0, zp), (Y, W)], rows)
            rhs = rho_fn(np.multiply(4.0 * s, fpm + fmp - fxz + fyw))
        else:
            fpp, fpm, fmp, fmm = map_pairs(f, [(xp, zp), (xp, zm), (xm, zp), (xm, zm)], rows)
            rhs = rho_fn(np.multiply(s, fpp + fpm + fmp + fmm - 4.0 * fxz))
    if keep is not None:
        rhs, kept = np.zeros_like(lhs), rhs
        rhs[rows] = kept
    return lhs, rhs


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
    # f(x, z) serves both slots; the map values keep their order
    pairs = [(X + Y, Z), (X, Z), (Y, Z), (X, Z + W), (X, W)]
    if fxz is not None:
        del pairs[1]
    vals = map_pairs(f, pairs)
    if fxz is not None:
        vals.insert(1, fxz)
    fXYZ, fXZ, fYZ, fXZW, fXW = vals
    slot1 = rho_fn(fXYZ - fXZ - fYZ)
    slot2 = rho_fn(fXZW - fXZ - fXW)
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


def _sup_rho(rho_fn, stack):
    """max over probes of rho, for each block of an (m, n, dim) stack."""
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
        fL = _stacked_call(f, lams[b], X, Z)
        direct[b] = _sup_rho(rho_fn, fL - lams[b, None, None] * fXZ)
        kept.append(fL[is_generic[b]])
    fLXZ = np.concatenate(kept) if generic else None
    route = np.empty(len(generic))
    for b in row_blocks(len(generic), 3 * n):
        fMU = _stacked_call(f, mus[b].reshape(-1), X, Z).reshape(len(Ms[b]), 3, *fXZ.shape)
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
    (n, dim) arrays: a run reads both from its level table (levels 0 and
    N), so the check evaluates neither again.
    """
    lhs = rho_fn(D_vals - d_vals)
    return _per_probe("stability_bound", lhs, hyers_bound(psi, probes.x, probes.z), INEQUALITY_TOL)


# The telescoping majorants bound the defect against the level-0 map.
# Ascending uses the geometric partial sum
#     sum_{i<=n} 2^-i psi(2^(i-1) x, 2^(i-1) x) psi(z, 0),
# whose full sum is bounded by psi(x,x) psi(z,0)/(2(1-L)).  Descending
# unrolls the recursion at the doubling constant ``modular.KAPPA`` = 2,
#     sum_{i<=n} 2^(i-1) psi_i psi(z, 0),
# in two variants: A's psi_i = psi(x / 2^i, x / 2^i), B's psi(x / 2^(i-1), 0).
# ``theorem.THEOREMS`` holds each as a term offset and step.  The full
# bound is ``hyers_bound`` on the probes.


def _majorant_terms(theorem, psi, X, span):
    """The majorant's term psi_i for each level i of ``span``, from one
    psi call on the stacked scaled probes: a (k, P) array.  psi_i is psi at
    (u, u), or (u, 0) where ``theorem`` substitutes y = 0, with
    u = 2^(sign (i - term_offset)) x."""
    n, dim = X.shape
    scale = [2.0 ** (theorem.sign * (i - theorem.term_offset)) for i in span]
    u = (np.array(scale)[:, None, None] * X).reshape(len(span) * n, dim)
    return psi(u, u if theorem.y_is_x else np.zeros_like(u)).reshape(len(span), n)


def _majorants(theorem, terms):
    """The majorants of levels 1..N before their psi(z, 0) factor, an
    (N, P) array, from their ``terms`` psi_1..psi_N: row n adds c_n psi_n
    to the row before it, in level order, from a +0.0 start row, with the
    Python float c_n = 2^(m n + c), (m, c) = ``theorem.step``."""
    m, c = theorem.step
    steps = np.array([2.0 ** (m * n + c) for n in range(1, len(terms) + 1)])[:, None] * terms
    return np.add.accumulate(np.concatenate([np.zeros_like(terms[:1]), steps]), axis=0)[1:]


def check_telescoping(table, psi, rho_fn, n, theorem):
    """The telescoping table of levels 1..n of ``table`` against level 0,
    one row per level: ``kappa_margin`` is the probe-max of the defect
    rho(T[l] - T[0]) minus the level's majorant times psi(z, 0), and
    ``final_margin`` the defect minus ``hyers_bound``.  A level passes iff
    both are at most ``INEQUALITY_TOL`` (its lhs is the larger, NaN if
    either is).  The majorant is that of the run's ``theorem.Theorem``
    ``theorem``, in the table's direction; each row has the bits it gets
    alone.  n is the run's stopping level.  psi and the theorem must scale
    in the table's direction."""
    if not psi.direction == table.cfg.direction == theorem.direction:
        raise PreconditionError("psi, the iteration and the theorem disagree on the direction")
    X, Z = table.cfg.probes.x, table.cfg.probes.z
    origin, defect = table[0], []
    for _, block in table.span(1, n):
        k, p, vd = block.shape
        defect.append(rho_fn((block - origin).reshape(k * p, vd)).reshape(k, p))
    defect = np.concatenate(defect)
    terms = np.concatenate([_majorant_terms(theorem, psi, X, range(b.start + 1, b.stop + 1))
                            for b in row_blocks(n, len(X))])
    majorant = _majorants(theorem, terms) * psi(Z, np.zeros_like(Z))
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
    X, Y, Z, W = probes.x, probes.y, probes.z, probes.w
    env = psi(X, Y) * psi(Z, W) if psi is not None else np.zeros(len(probes.x))

    # f(x, z) serves both slots; the map values keep their order
    fXYZ, fXZ, fYZ, fXZW, fXW = map_pairs(
        f, [(mul(X, Y, alg), Z), (X, Z), (Y, Z), (X, mul(Z, W, alg)), (X, W)])
    lhs1 = rho_fn(fXYZ - mul(fXZ, Y, alg) - mul(X, fYZ, alg))
    slot1 = _per_probe("biderivation_slot1", lhs1, env, IDENTITY_TOL)
    lhs2 = rho_fn(fXZW - mul(fXZ, W, alg) - mul(Z, fXW, alg))
    slot2 = _per_probe("biderivation_slot2", lhs2, env, IDENTITY_TOL, advisory=not assert_slot2)
    return slot1, slot2


def check_superstability(d, rho_fn, probes):
    """Passes iff the map already satisfies the exact doubling law
    d(2x, z) = 2 d(x, z) on every probe (to ``IDENTITY_TOL``), being its own
    limit.  One row, whose payload is the probe-sup ``sup_residual``."""
    X, Z = probes.x, probes.z
    d2XZ, dXZ = map_pairs(d, [(2.0 * X, Z), (X, Z)])
    res = rho_fn(d2XZ - 2.0 * dXZ)
    sup = float(np.max(res))
    return CheckResult.one("superstability", sup, 0.0, IDENTITY_TOL, {"sup_residual": sup})
