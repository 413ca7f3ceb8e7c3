"""Span tracer that times modstab from the outside by wrapping its public
functions; no file of the package changes.

Every public function of every ``modstab.*`` module, plus
``BiMap.__call__`` and ``PsiEnvelope.__call__``, is replaced by a wrapper
that records a span: calls, inclusive time of the outermost activation
(``total``) and self time (inclusive minus the wrapped children).  Several
modules import these functions by name (``from .stabilize import
stabilize``), so a wrapper replaces *every* binding of the original object
in every loaded ``modstab`` module, not only the defining one.  Modules are
resolved through ``importlib.import_module`` because ``modstab.stabilize``
as an attribute is the re-exported function, not the submodule.

The wrappers' own bookkeeping is timed and subtracted from the parents, so
self times sum to the traced wall time minus that bookkeeping.
"""

import hashlib
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = (
    "_kernels",
    "algebra",
    "modular",
    "bimaps",
    "stabilize",
    "verify",
    "scenarios",
    "report",
    "cli",
)
METHODS = (("bimaps", "BiMap"), ("bimaps", "PsiEnvelope"))
RHO_KERNELS = ("rho_norm", "rho_power", "rho_orlicz")
SMALL_BATCH_ROWS = 4096


class Span:
    __slots__ = ("calls", "total", "self_time", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.active = 0


def _rows(a):
    a = np.asarray(a)
    return 1 if a.ndim < 2 else a.shape[0]


class Tracer:
    """Install with ``install()``, run operations between ``begin_op()``
    calls, read ``spans`` and ``counts``, then ``uninstall()``."""

    def __init__(self):
        self.spans = defaultdict(Span)
        self.counts = defaultdict(float)
        self.bookkeeping = 0.0  # wrapper time outside any span
        self._stack = []
        self._restore = []
        self._seen_batches = set()
        self._levels_seen = set()

    # -- installation --------------------------------------------------

    def targets(self):
        """(span name, owner, attribute, original) for every public function."""
        out = []
        for short in MODULES:
            mod = importlib.import_module(f"modstab.{short}")
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue  # imported from elsewhere; wrapped at its home
                out.append((f"{short}.{attr}", mod, attr, obj))
        for short, cls_name in METHODS:
            cls = getattr(importlib.import_module(f"modstab.{short}"), cls_name)
            out.append((f"{short}.{cls_name}", cls, "__call__", cls.__call__))
        return out

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in sorted(sys.modules.items()) if n == "modstab" or n.startswith("modstab.")]
        for name, owner, attr, orig in self.targets():
            wrapper = self._wrap(name, orig)
            if inspect.isclass(owner):
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def begin_op(self):
        """Start a new operation: distinct-batch and distinct-level sets reset."""
        self._seen_batches.clear()
        self._levels_seen.clear()

    # -- spans -----------------------------------------------------------

    def _wrap(self, name, fn):
        span = self.spans[name]
        stack = self._stack
        count = self._count

        def traced(*args, **kwargs):
            e0 = perf_counter()
            frame = [0.0, 0.0]  # wrapped children's inclusive time, their bookkeeping
            stack.append(frame)
            span.active += 1
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                span.active -= 1
                incl = (t1 - t0) - frame[1]
                span.calls += 1
                self_t = incl - frame[0]
                span.self_time += self_t
                if span.active == 0:
                    span.total += incl
                count(name, args, result, self_t)
                e1 = perf_counter()
                own = (t0 - e0) + (e1 - t1) + frame[1]
                if stack:
                    stack[-1][0] += incl
                    stack[-1][1] += own
                else:
                    self.bookkeeping += own

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counters measured at the span boundaries --------------------------

    def _under(self, name):
        return self.spans[name].active > 0

    def _count(self, name, args, result, self_t):
        c = self.counts
        if name == "_kernels.batch_mul":
            a, b, t = args[:3]
            n, d = a.shape
            m = t.shape[2]
            size = "small" if n <= SMALL_BATCH_ROWS else "large"
            c["batch_mul.rows"] += n
            c[f"batch_mul.rows.{size}"] += n
            c[f"batch_mul.self.{size}"] += self_t
            # complex multiply-add = 8 real flops; 16 bytes per complex128
            c["batch_mul.flops"] += 8.0 * n * d * d * m
            c["batch_mul.bytes"] += 16.0 * (2 * n * d + d * d * m + n * m)
        elif name.startswith("_kernels.rho_"):
            c["rho.rows"] += _rows(args[0])
        elif name == "modular.eval_modular" and self._under("modular.luxemburg_norm"):
            c["luxemburg.evals"] += 1
        elif name == "bimaps.BiMap":
            x, z = np.asarray(args[1]), np.asarray(args[2])
            n = _rows(x)
            c["bimap.rows"] += n
            key = hashlib.blake2b(np.ascontiguousarray(x).tobytes(), digest_size=16)
            key.update(np.ascontiguousarray(z).tobytes())
            key = key.digest()
            if key not in self._seen_batches:
                self._seen_batches.add(key)
                c["bimap.rows.distinct"] += n
        elif name == "bimaps.PsiEnvelope":
            c["psi.rows"] += _rows(args[1])
        elif name == "verify.inequality_parts" and self._under("scenarios.calibrate_theta"):
            c["calibrate.rows"] += _rows(args[3])
        elif name == "stabilize.stabilize" and result is not None:
            levels = [lv.level for lv in result.levels]
            c["levels.tabulated"] += len(levels)
            new = set(levels) - self._levels_seen
            self._levels_seen |= new
            c["levels.distinct"] += len(new)
        elif name == "scenarios.run_scenario" and result is not None:
            c["records"] += len(result.records)

    # -- per-layer metrics ------------------------------------------------

    def metrics(self, n_ops):
        """Per-operation per-layer metrics (name -> (value, unit))."""
        s, c = self.spans, self.counts

        def per_op(v):
            return v / n_ops

        def ratio(a, b):
            return a / b if b else 0.0

        rho_calls = sum(s[f"_kernels.{k}"].calls for k in RHO_KERNELS)
        rho_self = sum(s[f"_kernels.{k}"].self_time for k in RHO_KERNELS)
        bm = s["_kernels.batch_mul"]
        out = {
            "_kernels.batch_mul.calls": (per_op(bm.calls), "count"),
            "_kernels.batch_mul.rows": (per_op(c["batch_mul.rows"]), "count"),
            "_kernels.batch_mul.self_s": (per_op(bm.self_time), "s"),
            "_kernels.batch_mul.ns_per_row.small": (
                1e9 * ratio(c["batch_mul.self.small"], c["batch_mul.rows.small"]), "ns/row"),
            "_kernels.batch_mul.ns_per_row.large": (
                1e9 * ratio(c["batch_mul.self.large"], c["batch_mul.rows.large"]), "ns/row"),
            "_kernels.batch_mul.flops": (per_op(c["batch_mul.flops"]), "flop.computed"),
            "_kernels.batch_mul.bytes": (per_op(c["batch_mul.bytes"]), "B.computed"),
            "_kernels.rho.calls": (per_op(rho_calls), "count"),
            "_kernels.rho.rows": (per_op(c["rho.rows"]), "count"),
            "_kernels.rho.self_s": (per_op(rho_self), "s"),
            "algebra.mul.self_s": (per_op(s["algebra.mul"].self_time), "s"),
            "modular.eval_modular.calls": (per_op(s["modular.eval_modular"].calls), "count"),
            "modular.eval_modular.self_s": (per_op(s["modular.eval_modular"].self_time), "s"),
            "modular.luxemburg_norm.calls": (per_op(s["modular.luxemburg_norm"].calls), "count"),
            "modular.luxemburg_norm.self_s": (per_op(s["modular.luxemburg_norm"].self_time), "s"),
            "modular.luxemburg_norm.evals_per_call": (
                ratio(c["luxemburg.evals"], s["modular.luxemburg_norm"].calls), "count"),
            "bimaps.BiMap.calls": (per_op(s["bimaps.BiMap"].calls), "count"),
            "bimaps.BiMap.rows": (per_op(c["bimap.rows"]), "count"),
            "bimaps.BiMap.self_s": (per_op(s["bimaps.BiMap"].self_time), "s"),
            "bimaps.BiMap.distinct_ratio": (
                ratio(c["bimap.rows.distinct"], c["bimap.rows"]), "ratio"),
            "bimaps.PsiEnvelope.calls": (per_op(s["bimaps.PsiEnvelope"].calls), "count"),
            "bimaps.PsiEnvelope.rows": (per_op(c["psi.rows"]), "count"),
            "bimaps.PsiEnvelope.self_s": (per_op(s["bimaps.PsiEnvelope"].self_time), "s"),
            "bimaps.check_psi_law.total_s": (per_op(s["bimaps.check_psi_law"].total), "s"),
            "stabilize.stabilize.calls": (per_op(s["stabilize.stabilize"].calls), "count"),
            "stabilize.stabilize.total_s": (per_op(s["stabilize.stabilize"].total), "s"),
            "stabilize.stabilize.self_s": (per_op(s["stabilize.stabilize"].self_time), "s"),
            "stabilize.levels_tabulated": (per_op(c["levels.tabulated"]), "count"),
            "stabilize.level_distinct_ratio": (
                ratio(c["levels.distinct"], c["levels.tabulated"]), "ratio"),
            "stabilize.check_uniqueness.total_s": (
                per_op(s["stabilize.check_uniqueness"].total), "s"),
            "stabilize.bounded_orbit_estimate.total_s": (
                per_op(s["stabilize.bounded_orbit_estimate"].total), "s"),
        }
        for check in VERIFY_CHECKS:
            out[f"verify.{check}.total_s"] = (per_op(s[f"verify.{check}"].total), "s")
        out.update({
            "verify.inequality_parts.calls": (per_op(s["verify.inequality_parts"].calls), "count"),
            "verify.inequality_parts.total_s": (per_op(s["verify.inequality_parts"].total), "s"),
            "scenarios.calibrate_theta.total_s": (
                per_op(s["scenarios.calibrate_theta"].total), "s"),
            "scenarios.calibrate_theta.rows": (per_op(c["calibrate.rows"]), "count"),
            "scenarios.run_scenario.total_s": (per_op(s["scenarios.run_scenario"].total), "s"),
            "scenarios.records": (per_op(c["records"]), "count"),
            "report.write_report.total_s": (per_op(s["report.write_report"].total), "s"),
            "cli.overhead_s": (per_op(s["cli.main"].self_time), "s"),
        })
        return out

    def self_total(self):
        return sum(sp.self_time for sp in self.spans.values())


VERIFY_CHECKS = (
    "check_inequality_A",
    "check_inequality_B",
    "check_stability_bound",
    "check_biadditivity",
    "check_first_slot_linearity",
    "check_biderivation",
    "check_superstability",
)
