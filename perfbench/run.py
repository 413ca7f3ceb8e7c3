#!/usr/bin/env python3
"""Benchmark of ``modstab run``: one closed-loop client on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S] [--trace 0|1]

Run from a plain checkout; ``src`` is put on the path, nothing is
installed.  One process, one Python thread: each operation is an
in-process ``modstab.cli.main(["run", <scenario>, "--out", <file>,
"--quiet"])``, issued after the previous one returns, cycling through the
workload's scenarios after one untimed warm-up pass.  Every operation's
report is checked against reference.json (exit code, failed records per
check; n_converged and theta at the default seed).

``--trace 0`` prints the end-to-end metrics: set-up time of a fresh
interpreter, operation time (median and tail), probes verified per second,
peak RSS and the share of operations that matched the reference.  Times
are scaled to nominal host speed by reference work timed beside them
(speed.py); the ``run`` line also gives the wall times.
``--trace 1`` runs the same operation sequence untraced, then traced by
perfbench/tracer.py, and prints per-operation layer metrics with the
tracing overhead.  ``--workload all`` runs each workload in its own
process and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_tmp" / str(os.getpid())

SETUP_SPAWNS = (5, 4)  # fresh interpreters before and after the timed window
OP_TIMEOUT_S = 60.0
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

SETUP_CHILD = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import modstab.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = modstab.cli.main(["list"])
print("ready" if rc == 0 else "list exited %d" % rc, flush=True)
"""


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S:g} s")


def _spawn_until_ready(code, *args):
    """Seconds from spawning ``python -c code`` until it prints ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    line = proc.stdout.readline().strip()
    elapsed = time.perf_counter() - t0
    _, err = proc.communicate(timeout=60)
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {line!r} {err.strip()}")
    return elapsed


def measure_setup(spawns):
    """Seconds from spawning each interpreter until its CLI answers ``list``,
    as (wall, at nominal host speed) pairs (speed.py)."""
    from speed import NOMINAL_SPAWN_S, REFERENCE_SPAWN, scale

    times = []
    ref = _spawn_until_ready(REFERENCE_SPAWN)
    for _ in range(spawns):
        elapsed = _spawn_until_ready(SETUP_CHILD, str(SRC))
        after = _spawn_until_ready(REFERENCE_SPAWN)
        times.append((elapsed, scale(elapsed, ref, after, NOMINAL_SPAWN_S)))
        ref = after
    return times


class Client:
    """Closed-loop client: runs operations one after another and checks each."""

    def __init__(self, workload, bench_seed):
        import modstab.cli
        from verdicts import load_reference
        from workloads import GENERATED, probe_count, scenario_config, seed_args, seed_offset, write_generated

        self.cli = modstab.cli
        self.last_ref = None  # reference-loop time after the previous operation
        signal.signal(signal.SIGALRM, _on_alarm)
        self.offset = seed_offset(bench_seed)
        reference = load_reference()
        self.out = str(WORK_DIR / "report.jsonl")
        self.ops = []
        for name in workload.scenarios:
            cfg = scenario_config(name)
            source = write_generated(name, WORK_DIR) if name in GENERATED else name
            argv = ["run", source, "--out", self.out, "--quiet"] + seed_args(cfg, self.offset)
            self.ops.append((name, argv, probe_count(cfg), reference[name]))
        self.reset()

    def run_one(self, i, tracer=None):
        """Run operation i, cycling through the scenarios, and check its report."""
        from speed import NOMINAL_S, scale, time_reference_loop
        from verdicts import mismatches, read_verdict

        name, argv, _, ref = self.ops[i % len(self.ops)]
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out)
        gc.collect()  # start from a collected heap, as a fresh `modstab run` does
        if self.last_ref is None:
            self.last_ref = time_reference_loop()
        if tracer is not None:
            tracer.begin_op()
        problem = None
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except (Exception, SystemExit) as e:  # crash, timeout or argparse exit: a failed operation
            rc = None
            problem = f"{type(e).__name__}: {e}"
            traceback.print_exc(file=sys.stderr)
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        if problem is None:
            try:
                self.report_bytes += os.path.getsize(self.out)
                diffs = mismatches(ref, rc, read_verdict(self.out), self.offset)
            except (OSError, ValueError, KeyError) as e:
                diffs = [f"unreadable report: {e}"]
            problem = "; ".join(diffs) or None
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"# FAILED {name} (offset {self.offset}): {problem}", file=sys.stderr)
        self.times.append(elapsed)
        self.by_scenario[name].append(elapsed)
        after = time_reference_loop()
        self.by_scenario_nominal[name].append(scale(elapsed, self.last_ref, after, NOMINAL_S))
        self.last_ref = after

    def warm_up(self):
        for i in range(len(self.ops)):
            self.run_one(i)
        self.reset()

    def reset(self):
        self.times, self.attempted, self.failed, self.report_bytes = [], 0, 0, 0
        self.by_scenario = {name: [] for name, *_ in self.ops}
        self.by_scenario_nominal = {name: [] for name, *_ in self.ops}

    def run_for(self, seconds, whole_cycles=False):
        """Run operations until ``seconds`` have passed (at least one); with
        ``whole_cycles`` finish the last pass through the scenarios."""
        deadline = time.perf_counter() + seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline or (whole_cycles and i % len(self.ops)):
            self.run_one(i)
            i += 1
        return i


def tail(times):
    """Highest percentile with TAIL_BEYOND samples above it; the upper median
    when there are too few samples.  Returns (value, percentile, samples beyond)."""
    s = sorted(times)
    n = len(s)
    k = max(n - 1 - TAIL_BEYOND, n // 2)
    return s[k], 100.0 * (k + 1) / n, n - 1 - k


def end_to_end(workload, args):
    """Set-up samples bracket the timed window so both see the same machine.
    Every time metric is taken at nominal host speed (speed.py); the wall
    times are printed on the ``run`` line."""
    setup = measure_setup(SETUP_SPAWNS[0])
    client = Client(workload, args.seed)
    client.warm_up()
    client.run_for(args.seconds)
    setup += measure_setup(SETUP_SPAWNS[1])
    # Quantiles are taken per scenario and averaged over the workload's
    # scenarios: over a mix, a quantile falls between the scenarios' clusters
    # and jumps from run to run.
    medians = {name: statistics.median(v) for name, v in client.by_scenario_nominal.items()}
    tails = {name: tail(v) for name, v in client.by_scenario_nominal.items()}
    probes = {name: p for name, _, p, _ in client.ops}
    info = {
        "samples": {name: len(v) for name, v in client.by_scenario.items()},
        "p50_s": medians,
        "tail": {name: {"s": v, "percentile": round(pct, 2), "samples_beyond": beyond}
                 for name, (v, pct, beyond) in tails.items()},
        "failed_ratio": client.failed / client.attempted,
        "seed_offset": client.offset,
        "wall": {
            "setup_s": statistics.median(wall for wall, _ in setup),
            "run_s.p50": statistics.fmean(statistics.median(v) for v in client.by_scenario.values()),
            "run_s.tail": statistics.fmean(tail(v)[0] for v in client.by_scenario.values()),
        },
    }
    metrics = {
        "setup_s": (statistics.median(nominal for _, nominal in setup), "s"),
        "run_s.p50": (statistics.fmean(medians.values()), "s"),
        "run_s.tail": (statistics.fmean(v for v, _, _ in tails.values()), "s"),
        # one pass through the scenarios at their median operation times
        "probes_per_s": (sum(probes.values()) / sum(medians.values()), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (1.0 - client.failed / client.attempted, "ratio"),
    }
    return client, metrics, info


def traced(workload, args):
    from tracer import Tracer
    from workloads import MUST_HIT_EVERYWHERE

    client = Client(workload, args.seed)
    client.warm_up()
    n_ops = client.run_for(args.seconds / 2.0, whole_cycles=True)
    untraced_s = sum(client.times)
    attempted, failed = client.attempted, client.failed
    client.reset()

    tracer = Tracer()
    tracer.install()
    try:
        for i in range(n_ops):
            client.run_one(i, tracer)
    finally:
        tracer.uninstall()
    traced_s = sum(client.times)
    client.attempted += attempted
    client.failed += failed

    metrics = tracer.metrics(n_ops)
    metrics["report.bytes"] = (client.report_bytes / n_ops, "B")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    metrics["trace.attributed_ratio"] = (tracer.self_total() / traced_s, "ratio")

    missing = [n for n in MUST_HIT_EVERYWHERE + workload.must_hit if tracer.spans[n].calls == 0]
    accounted = (tracer.self_total() + tracer.bookkeeping) / traced_s
    info = {
        "ops_traced": n_ops,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans_missing": missing,
        "self_plus_bookkeeping_over_wall": accounted,
        "top_self_s": top_self(tracer, n_ops),
    }
    if missing:
        print(f"# tracer self-check: no calls recorded for {missing}", file=sys.stderr)
    return client, metrics, info, not missing


def top_self(tracer, n_ops, k=8):
    spans = sorted(tracer.spans.items(), key=lambda kv: -kv[1].self_time)[:k]
    return {name: sp.self_time / n_ops for name, sp in spans}


def run_workload(args):
    from machine import machine_block
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    try:
        print(json.dumps({"machine": machine_block(ROOT)}, sort_keys=True))
        print(json.dumps({"workload": workload.name, "scenarios": workload.scenarios,
                          "why": workload.why, "exercises": workload.exercises,
                          "bypasses": workload.bypasses}))
        if args.trace:
            client, metrics, info, tracer_ok = traced(workload, args)
        else:
            client, metrics, info = end_to_end(workload, args)
            tracer_ok = True
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.parent.rmdir()  # only once no other run uses it
    print(json.dumps({"run": info}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:<22} {name:<44} {value:>16.6g} {unit}")
    result = {
        "correct": client.failed == 0 and tracer_ok,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process; one table of every metric."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    names = list(results)
    metrics = list(results[names[0]]["metrics"])
    print(f"{'metric':<44} {'unit':<14}" + "".join(f" {n:>22}" for n in names))
    for m in metrics:
        unit = results[names[0]]["metrics"][m]["unit"]
        row = "".join(f" {results[n]['metrics'][m]['value']:>22.6g}" for n in names)
        print(f"{m:<44} {unit:<14}{row}")
    for n in names:
        r = results[n]
        print(f"# {n}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="0 = each builtin's own seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "modstab" / "__init__.py").is_file():
        print(f"error: no modstab package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
