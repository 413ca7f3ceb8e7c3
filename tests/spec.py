"""The executable specification of a stability run: the plain computation
whose report lines the optimised ``modstab`` run must reproduce bit for bit.

``run(source, seed, count)`` gives the exit code and the report lines,
header left out, of a stability config (a builtin name, a file or a dict,
with the ``--seed-override`` and ``--probes`` values), or raises the
``ModstabError`` subclass of a run that exits 2.  Probes come in order
from one generator; calibration evaluates both sides of every tuple of one
10,000-row random family; a level is one map call, made again by each
stage that reads it (the reruns of uniqueness share theirs); each
telescoping majorant is summed on its own, the orbit estimate takes one
modular call per pair of levels, and the psi law and first-slot linearity
go one level and one scalar at a time.  From the package it takes the
config reader, the builders, the row kernels, ``ModularSpec``, the error
classes and ``ReportRecord``; its constants are literals, so a constant
changed in ``src`` shows as a diff.

Axioms runs are out of scope: ``_run_axioms`` has no optimisation to pin.
One difference is known: the package evaluates a random tuple's right side
only where its left side can raise theta, so a map overflow confined to
skipped right sides (radius 4.57e76) ends its run with exit 1, this one
with exit 2, and so would a right side's sum that overflows to NaN there.
"""

import numpy as np

from modstab.algebra import complex_uniform, mul, three_unimodular_decomposition
from modstab.bimaps import PsiEnvelope
from modstab.config import parse
from modstab.errors import ConfigError, NonFiniteValueError, OverflowAbort, PreconditionError
from modstab.modular import ModularSpec, eval_modular, luxemburg_norm
from modstab.report import ReportRecord
from modstab.scenarios import build_algebra, build_bimap, load_config


class Probes:
    """The tuples (x, y, z, w, lam) of a probe draw: x, y, z and w, real
    parts then imaginary parts, from one generator, lam past row 16 from
    another.  Rows 0-12 are the mandatory tuples, built from rows 13-16,
    whose lam are the corner scalars."""

    def __init__(self, dim, count, radius, seed):
        if count < 17:
            raise ConfigError("need at least 17 probes to fit the mandatory tuples")
        rng, half = np.random.default_rng(seed), radius / np.sqrt(2.0)
        x, y, z, w = (complex_uniform(rng, -half, half, (count, dim)) for _ in range(4))
        angle = np.random.default_rng(seed + 1).uniform(0.0, 2.0 * np.pi, count - 17)
        corners, circle = [1.0, -1.0, 1j, -1j], np.cos(angle) + 1j * np.sin(angle)
        lam = np.concatenate([np.ones(13), corners, circle])
        bx, bz = x[13:17].copy(), z[13:17].copy()
        x[0:4], y[0:4], z[0:4], w[0:4] = bx, bx, bz, 0.0
        x[4:8], y[4:8], z[4:8], w[4:8] = bx, 0.0, bz, 0.0
        x[8:12], y[8:12], z[8:12], w[8:12] = bx / 2.0, bx / 2.0, bz, 0.0
        x[12] = y[12] = z[12] = w[12] = 0.0
        self.x, self.y, self.z, self.w, self.lam = x, y, z, w, lam
        self.radius, self.seed = radius, seed


class Iteration:
    """The scaled iterates T_n of the map d on the probes x, z, one map call
    per level, with the level cap n_max, the tolerance and the magnitude cap."""

    def __init__(self, d, direction, n_max, tol, cap, x, z):
        self.d, self.direction, self.n_max, self.tol, self.cap, self.x, self.z = (
            d, direction, n_max, tol, cap, x, z)

    def at(self, n):
        """The level-n map 2^-n d(2^n x, z), or 2^n d(x / 2^n, z) descending."""
        s = 2.0**n
        if self.direction == "ascending":
            return lambda x, z: self.d(s * np.asarray(x, dtype=np.complex128), z) / s
        return lambda x, z: s * self.d(np.asarray(x, dtype=np.complex128) / s, z)

    def within_cap(self, n):
        """Whether the scaled probes of level n stay within the magnitude cap."""
        return self.direction != "ascending" or 2.0**n * float(np.abs(self.x).max()) <= self.cap

    def level(self, n):
        """T_n on the probes; an ascending level past the cap, or a non-finite
        value, raises naming the level and a probe."""
        x = self.x
        if not self.within_cap(n):
            raise OverflowAbort(f"2^{n} scaling exceeds the magnitude cap {self.cap:g}",
                                level=n, probe_id=int(np.argmax(np.abs(x).max(axis=1))))
        vals = self.at(n)(x, self.z)
        finite = np.isfinite(vals).all(axis=1)
        if not finite.all():
            raise NonFiniteValueError(f"non-finite iterate value at level {n}",
                                      probe_id=int(np.argmax(~finite)), level=n)
        return vals


def record(name, check, lhs, rhs, tol, payload, advisory=False):
    """One check row, which passes iff lhs - rhs <= tol."""
    return ReportRecord(name, "check", {"check": check, **payload}, lhs - rhs <= tol, advisory)


def per_probe(name, check, lhs, rhs, tol, advisory=False):
    """One row per probe i: probe_id i, lhs, rhs and margin."""
    return [ReportRecord(name, "check", {"check": check, "probe_id": i, "lhs": l, "rhs": r,
                                         "margin": l - r}, l - r <= tol, advisory)
            for i, (l, r) in enumerate(zip(lhs.tolist(), rhs.tolist()))]


def sides(f, rho, s, X, Y, Z, W, lam, which):
    """(lhs, rhs) of inequality A or B, envelope left out, on every tuple."""
    lamc, xp, xm, zp, zm = lam[:, None], X + Y, X - Y, Z + W, Z - W
    fxz = f(X, Z)
    if which == "A":
        lhs = rho(f(lamc * xp, zp) + f(lamc * xp, zm) + f(lamc * xm, zp) + f(lamc * xm, zm)
                  - 4.0 * lamc * fxz)
        return lhs, rho(np.multiply(4.0 * s, f(xp / 2.0, zm) + f(xm / 2.0, zp) - fxz + f(Y, W)))
    lhs = rho(4.0 * (f(lamc * xp / 2.0, zm) + f(lamc * xm / 2.0, zp) - lamc * fxz
                     + lamc * f(Y, W)))
    return lhs, rho(np.multiply(s, f(xp, zp) + f(xp, zm) + f(xm, zp) + f(xm, zm) - 4.0 * fxz))


def hyers(psi, X, Z):
    return psi(X, X) * psi(Z, np.zeros_like(Z)) / (2.0 * (1.0 - psi.L))


def scaled_family(it, psi1, rho, which):
    """(need, unit) on the degenerate tuples the iteration traverses, one
    level pair (T_i, T_i+1), i < n_max, at a time; it ends at the first level
    past the magnitude cap.  Ascending B has a zero left side: no tuple."""
    ascending, x = it.direction == "ascending", it.x
    if ascending and which == "B":
        return
    psi_z0 = psi1(it.z, np.zeros_like(it.z))
    try:
        lo = it.level(0)
        for i in range(it.n_max):
            hi = it.level(i + 1)
            if ascending:  # (u, u, z, 0) with u = 2^i x
                k, u = 2.0 ** (i + 2), 2.0**i * x
                need, unit = rho(k * hi - k * lo), psi1(u, u)
            elif which == "A":  # (u, u, z, 0) with u = x / 2^(i+1)
                k, u = 2.0 ** (1 - i), x / 2.0 ** (i + 1)
                need, unit = rho(k * lo - k * hi), psi1(u, u)
            else:  # (u, 0, z, 0) with u = x / 2^i
                k, u = 2.0 ** (2 - i), x / 2.0**i
                need, unit = rho(k * hi - k * lo), psi1(u, np.zeros_like(u))
            yield need, unit * psi_z0
            lo = hi
    except OverflowAbort:
        return


def calibrate(f, psi, rho, s, which, probes, extra, it):
    """1.05 times the largest need / unit, at least 1e-12, over the probes,
    the random tuples ``extra`` and the scaled family of ``it``, each family
    evaluated when it is reached; a defect above 1e-12 where the unit is at
    most 1e-15 is refused, and so is an overflow: a NaN need, or a need /
    unit whose theta is not finite."""
    psi1 = psi.with_theta(1.0)

    def family():
        for t in (probes, extra):
            lhs, rhs = sides(f, rho, s, t.x, t.y, t.z, t.w, t.lam, which)
            yield lhs - rhs, psi1(t.x, t.y) * psi1(t.z, t.w)
        yield from scaled_family(it, psi1, rho, which)

    required = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for need, unit in family():
            weighted = unit > 1e-15
            if np.any(~weighted & (need > 1e-12)):
                raise ConfigError("defect does not vanish where the envelope does; "
                                  "no theta can calibrate it")
            ratios = need[weighted] / unit[weighted]
            if np.any(np.isnan(need)) or not np.all(ratios * 1.05 < np.inf):
                raise ConfigError("the defect overflows float64; no theta can calibrate it")
            if np.any(weighted):
                required = max(required, float(np.max(ratios)))
    return max(required * 1.05, 1e-12)


def psi_law(psi, X, Y, name=None):
    """The scaling inequality at x and 2x, and the scaled sequence over
    levels 0..30, one psi call per level, as its one report row."""
    ascending = psi.direction == "ascending"
    with np.errstate(over="ignore", invalid="ignore"):
        seq = []
        for n in range(31):
            s = 2.0**n
            seq.append(psi(s * X, s * Y) / s if ascending else s * psi(X / s, X / s))
        seq, X2 = np.array(seq), 2.0 * X
        if ascending:
            margins = psi(X2, X2) - 2.0 * psi.L * psi(X, X)
        else:
            margins = psi(X, X) - (psi.L / 2.0) * psi(X2, X2)
    law_margin, start = float(margins[int(np.argmax(margins))]), seq[0]
    floor = 1e-9 * start
    live = seq[:-1] > floor[None, :]
    monotone = np.all((seq[1:] <= seq[:-1] * (1.0 + 1e-12)) | ~live)
    shrunk = (start == 0.0) | (seq[-1] < start) | (seq[-1] <= floor)
    decay_ok = bool(monotone and np.all(shrunk))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(start > 0.0, seq[-1] / start, 0.0)
    decay_ratio = float(np.max(ratios) ** (1.0 / 30)) if np.any(start > 0) else 0.0
    payload = {"law_margin": law_margin, "decay_ok": decay_ok, "decay_ratio": decay_ratio}
    return record(name, "psi_law", law_margin if decay_ok else np.inf, 0.0, 1e-9, payload)


def delta(rho, cur, prev, n):
    """rho(T_n - T_n-1) per probe, aborting on a non-finite value."""
    vals = rho(cur - prev)
    if not np.isfinite(vals).all():
        raise NonFiniteValueError("non-finite modular value", level=n)
    return vals


def iterate(it, psi, rho, form):
    """The per-level loop that stops at the first delta_n <= tol, or at
    n_max: (N, converged, bound margin, [(level, sup delta, rho-tilde
    delta)], weights).  The weight is psi(x, 0) psi(z, 0) for the
    kappa_first_zero substitution, else psi(x, x) psi(z, 0)."""
    X, Z = it.x, it.z
    first = psi(X, np.zeros_like(X)) if form == "kappa_first_zero" else psi(X, X)
    weights = first * psi(Z, np.zeros_like(Z))
    active = weights > 1e-15
    prev = origin = it.level(0)
    bound, levels = hyers(psi, X, Z), []
    for n in range(1, it.n_max + 1):
        cur = it.level(n)
        vals = delta(rho, cur, prev, n)
        if np.any(~active & (vals > 1e-12)):
            rt = np.inf
        elif not np.any(active):
            raise PreconditionError("no probe carries positive weight")
        else:
            rt = float(np.max(vals[active] / weights[active]))
        levels.append((n, float(np.max(vals)), rt))
        prev = cur
        if levels[-1][1] <= it.tol:
            break
    bound_margin = float(np.max(rho(prev - origin) - bound))
    return len(levels), levels[-1][1] <= it.tol, bound_margin, levels, weights


def majorant_terms(form, psi, X, N):
    """psi_i for i = 1..N, one psi call each: psi(2^(i-1) x, 2^(i-1) x)
    ascending, psi(x / 2^i, x / 2^i) for kappa_both_slots and
    psi(x / 2^(i-1), 0) for kappa_first_zero."""
    if form == "kappa_first_zero":
        return [psi(X / 2.0 ** (i - 1), np.zeros_like(X)) for i in range(1, N + 1)]
    us = [2.0 ** (i - 1) * X if form == "ascending" else X / 2.0**i for i in range(1, N + 1)]
    return [psi(u, u) for u in us]


def majorant(form, terms, n):
    """Level n's majorant before its psi(z, 0) factor: sum_i 2^-i psi_i
    ascending, else the kappa-general sum kappa^(n-1) / 2^(n-1) psi_1 +
    sum_{i>1} kappa^n / 2^(n-i+1) psi_i at kappa = 2."""
    if form == "ascending":
        out = np.zeros_like(terms[0])
        for i in range(1, n + 1):
            out = out + 2.0 ** (-i) * terms[i - 1]
        return out
    out = 2.0 ** (n - 1) / 2.0 ** (n - 1) * terms[0]
    for i in range(2, n + 1):
        out = out + 2.0**n / 2.0 ** (n - i + 1) * terms[i - 1]
    return out


def telescoping(it, psi, rho, N, form, name=None):
    """Rows of levels 1..N: rho(T_n - T_0) against the level's majorant and
    against the Hyers bound, each level taken alone."""
    terms, psi_z0 = majorant_terms(form, psi, it.x, N), psi(it.z, np.zeros_like(it.z))
    bound, origin, rows = hyers(psi, it.x, it.z), it.level(0), []
    for n in range(1, N + 1):
        defect = rho(it.level(n) - origin)
        kappa_margin = float(np.max(defect - majorant(form, terms, n) * psi_z0))
        final_margin = float(np.max(defect - bound))
        rows.append(record(name, "telescoping", float(np.maximum(kappa_margin, final_margin)),
                           0.0, 1e-9, {"level": n, "kappa_margin": kappa_margin,
                                       "final_margin": final_margin}))
    return rows


def orbit_estimate(levels, weights, rho):
    """max over level pairs i < j and probes of rho(T_i - T_j) / w, one modular
    call per pair, at the probes whose weight is above 1e-15; +inf when a
    probe at or below it carries a value above 1e-12.  A level i whose ratios
    over its pairs (i, j) include a NaN adds nothing, as Python's max passes
    over it."""
    active, best = weights > 1e-15, 0.0
    for i in range(len(levels) - 1):
        ratios = []
        for j in range(i + 1, len(levels)):
            vals = rho(levels[i] - levels[j])
            if np.any(~active & (vals > 1e-12)):
                return float("inf")
            ratios.append(vals[active] / weights[active])
        if np.any(active):
            best = max(best, float(np.max(ratios)))
    return best


def uniqueness(it, rho, N, name=None):
    """Reruns of the per-level loop from start levels 1..3 and with level caps
    n_max -/+ 5, against the run's limit T_N.  A rerun from s capped at m
    walks the levels from 1 and freezes at the first n in (s, m] with
    delta_n <= tol, else at max(s, m), or at the last level below the
    magnitude cap.  The five reruns read the levels and deltas once."""
    levels, sups = {}, {}

    def level(n):
        if n not in levels:
            levels[n] = it.level(n)
        return levels[n]

    def rerun(start, cap):
        try:
            for n in range(1, cap + 1):
                if n not in sups:
                    prev = level(n - 1)
                    sups[n] = float(np.max(delta(rho, level(n), prev, n)))
                if sups[n] <= it.tol and n > start:
                    return n, level(n)
            return max(start, cap), level(max(start, cap))
        except OverflowAbort as e:
            n = e.level - 1
            while not it.within_cap(n):
                n -= 1
            return n, level(n)

    base, variants = level(N), []
    for tag, start, cap in [(f"start={s}", s, it.n_max) for s in (1, 2, 3)] + [
            (f"n_max={m}", 0, m) for m in (max(1, it.n_max - 5), it.n_max + 5)]:
        n, vals = rerun(start, cap)
        variants.append([tag, n, float(np.max(rho(vals - base)))])
    worst = max(0.0, *(gap for _, _, gap in variants))
    return record(name, "uniqueness", worst, 0.0, 10.0 * it.tol,
                  {"max_disagreement": worst, "variants": variants})


def linearity(f, rho, scalars, X, Z, tol, name=None):
    """f(l x, z) = l f(x, z) for each scalar l, one map call per scalar and per
    route term: a generic l is also compared with (M/3) sum_k f(mu_k x, z),
    where mu_1 + mu_2 + mu_3 = 3 l / M and M = floor(4 |l|) + 1."""
    fXZ, rows = f(X, Z), []
    for i, lam in enumerate(np.asarray(scalars, dtype=np.complex128)):
        fLXZ = f(lam * X, Z)
        worst = direct = float(np.max(rho(fLXZ - lam * fXZ)))
        payload = {"probe_id": i, "lam": [float(lam.real), float(lam.imag)], "direct": direct}
        if abs(abs(lam) - 1.0) > 1e-12:
            M = int(np.floor(4.0 * abs(lam))) + 1
            t = three_unimodular_decomposition(3.0 * lam / M)
            route_vec = (M / 3.0) * (f(t.mu1 * X, Z) + f(t.mu2 * X, Z) + f(t.mu3 * X, Z))
            route = float(np.max(rho(fLXZ - route_vec)))
            payload.update(route=route, M=M)
            worst = float(np.maximum(direct, route))
        payload.update(lhs=worst, rhs=0.0, margin=worst - 0.0)
        rows.append(record(name, "first_slot_linearity", worst, 0.0, tol, payload))
    return rows


def linearity_scalars(seed):
    """The corner scalars, 16 seeded circle points and 8 generic values."""
    angle = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 16)
    rng = np.random.default_rng(seed + 1)
    r, ang = rng.uniform(0.3, 4.0, 4), rng.uniform(0.0, 2.0 * np.pi, 4)
    return np.concatenate([[1.0, -1.0, 1j, -1j], np.cos(angle) + 1j * np.sin(angle),
                           [2.0 + 1.0j, -3.7 + 0.1j, 0.2 - 2.2j, 3.9j], r * np.exp(1j * ang)])


def biadditivity(f, rho, p, tol, name):
    fXYZ, fXZ = f(p.x + p.y, p.z), f(p.x, p.z)
    slots, rows = (rho(fXYZ - fXZ - f(p.y, p.z)), rho(f(p.x, p.z + p.w) - fXZ - f(p.x, p.w))), []
    for slot, residuals in enumerate(slots, 1):
        witness = int(np.argmax(residuals))
        sup = float(residuals[witness])
        rows.append(record(name, f"biadditivity_slot{slot}", sup, 0.0, tol,
                           {"residual": sup, "witness": witness, "tol": tol}))
    return rows


def biderivation(f, rho, alg, psi, p, assert_slot2, name):
    X, Y, Z, W = p.x, p.y, p.z, p.w
    env = psi(X, Y) * psi(Z, W) if psi is not None else np.zeros(len(X))
    fXYZ, fXZ = f(mul(X, Y, alg), Z), f(X, Z)
    lhs1 = rho(fXYZ - mul(fXZ, Y, alg) - mul(X, f(Y, Z), alg))
    rows = per_probe(name, "biderivation_slot1", lhs1, env, 1e-10)
    lhs2 = rho(f(X, mul(Z, W, alg)) - mul(fXZ, W, alg) - mul(Z, f(X, W), alg))
    return rows + per_probe(name, "biderivation_slot2", lhs2, env, 1e-10,
                            advisory=not assert_slot2)


def run(source, seed=None, count=None):
    """(exit code, report lines without the header) of a stability config."""
    v = parse(load_config(source), seed=seed, count=count)
    if v["kind"] != "stability":
        raise ValueError("the spec covers stability runs only")
    name, checks, s = v["name"], v["checks"], v["s"]
    which = "B" if "inequality_B" in checks else "A"
    mv = v["modular"]
    algebra, m = build_algebra(v["algebra"]), ModularSpec(mv["kind"], mv["p"], mv["phi"])
    d = build_bimap(v["map"], algebra)
    p = Probes(algebra.dim, v["probes"]["count"], v["probes"]["radius"], v["probes"]["seed"])
    psi = it = form = None
    if (q := v["psi"]) is not None:
        psi = PsiEnvelope(theta=1.0 if q["theta"] == "calibrate" else q["theta"], p=q["p"],
                          L=q["L"], direction=q["direction"],
                          norm_fn=lambda x: luxemburg_norm(m, x))
        # the substitution that seeds the iteration: it names the majorant and the weight
        form = "ascending" if psi.direction == "ascending" else (
            "kappa_first_zero" if which == "B" else "kappa_both_slots")
    if v["iteration"] is not None:
        i = v["iteration"]
        if psi is None:
            raise ConfigError("iteration requires an envelope")
        g = d.perturbation
        if g is not None and g.name == "power_env" and (
                g.p >= 1.0 if psi.direction == "ascending" else g.p <= 1.0):
            raise ConfigError("power_env's exponent is on the wrong side of 1")
        it = Iteration(d, psi.direction, i["n_max"], i["tol"], i["magnitude_cap"], p.x, p.z)
    if it is None and set(checks) & {"stability_bound", "telescoping", "bounded_orbit",
                                     "uniqueness"}:
        raise ConfigError("a check requires an iteration section")

    def rho(rows):
        return eval_modular(m, np.atleast_2d(rows))

    if q is not None and q["theta"] == "calibrate":
        extra = Probes(algebra.dim, 10_000, p.radius, p.seed + 104_729)
        table = it or Iteration(d, psi.direction, 40, 1e-10, 1e15, p.x, p.z)
        psi = psi.with_theta(calibrate(d, psi, rho, s, which, p, extra, table))
    weight = "psi_x0_z0" if form == "kappa_first_zero" else "psi_xx_z0"
    echo = {"config_name": name, "algebra": algebra.preset_name or f"dim-{algebra.dim}",
            "modular": m.kind, "weight": weight, "s": [s.real, s.imag],
            "probes": {"count": len(p.x), "radius": p.radius, "seed": p.seed}}
    if psi is not None:
        echo.update(theta=psi.theta, L=psi.L, psi_p=psi.p, direction=psi.direction)
    records = [ReportRecord(name, "config", echo, True)]
    if psi is not None:
        records.append(psi_law(psi, p.x, p.y, name))
    halted, N = not records[-1].passed, None
    if not halted and it is not None:
        try:
            N, converged, bound_margin, levels, weights = iterate(
                it, psi, rho, form)
        except (OverflowAbort, NonFiniteValueError) as e:
            records.append(ReportRecord(name, "iterate", {
                "error": str(e), "level": e.level, "probe_id": e.probe_id}, False))
            halted = True
        else:
            records += [ReportRecord(name, "iterate", {
                "level": n, "sup_rho_delta": sup, "rho_tilde_delta": rt}, True)
                for n, sup, rt in levels]
            records.append(record(name, "stabilize", levels[-1][1], 0.0, it.tol, {
                "n_converged": N, "converged": converged, "bound_margin": bound_margin}))
    target, tol = (d, 1e-10) if N is None else (it.at(N), 10.0 * it.tol)
    for check in [] if halted else checks:
        if check in ("inequality_A", "inequality_B"):
            lhs, rhs = sides(d, rho, s, p.x, p.y, p.z, p.w, p.lam, check[-1])
            if psi is not None:
                rhs = rhs + psi(p.x, p.y) * psi(p.z, p.w)
            records += per_probe(name, check, lhs, rhs, 1e-9)
        elif check == "stability_bound":
            lhs = rho(it.level(N) - it.level(0))
            records += per_probe(name, check, lhs, hyers(psi, p.x, p.z), 1e-9)
        elif check == "biadditivity":
            records += biadditivity(target, rho, p, tol, name)
        elif check == "first_slot_linearity":
            records += linearity(target, rho, linearity_scalars(p.seed + 3), p.x, p.z, tol, name)
        elif check == "biderivation":
            records += biderivation(d, rho, algebra, psi, p, v["biderivation_assert_slot2"], name)
        elif check == "superstability":
            sup = float(np.max(rho(d(2.0 * p.x, p.z) - 2.0 * d(p.x, p.z))))
            records.append(record(name, check, sup, 0.0, 1e-10, {"sup_residual": sup}))
            if sup <= 1e-10 and N is not None:
                gap = float(np.max(rho(it.level(N) - it.level(0))))
                records.append(record(name, "superstability_certificate", gap, 0.0, 1e-12,
                                      {"limit_gap": gap}))
        elif check == "telescoping":
            records += telescoping(it, psi, rho, N, form, name)
        elif check == "bounded_orbit":
            est = orbit_estimate([it.level(n) for n in range(N + 1)], weights, rho)
            cap = 1.0 / (1.0 - psi.L) + 1e-6
            records.append(record(name, check, est, cap, 0.0, {"estimate": est, "cap": cap}))
        else:  # uniqueness
            records.append(uniqueness(it, rho, N, name))
    return (1 if any(r.n_failed for r in records) else 0), [r.to_json() + "\n" for r in records]
