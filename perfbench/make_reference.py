#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the current source tree.

Runs every scenario of every workload at every seed-pool offset and stores
its exit code and per-check failed-record counts, plus ``n_converged`` and
theta at the default seed.  The committed file was taken from the commit
that introduced the benchmark; regenerate it only when a change is meant
to move verdicts, and say so in the change.

    python3 perfbench/make_reference.py
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import modstab.cli  # noqa: E402
from verdicts import REFERENCE_PATH, read_verdict  # noqa: E402
from workloads import GENERATED, SEED_POOL, WORKLOADS, scenario_config, seed_args, write_generated  # noqa: E402


def main():
    reference = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp = Path(tmp)
        out = str(tmp / "report.jsonl")
        for workload in WORKLOADS.values():
            for name in workload.scenarios:
                cfg = scenario_config(name)
                source = write_generated(name, tmp) if name in GENERATED else name
                entry = {"exit": None, "failed": {}}
                for offset in range(SEED_POOL):
                    rc = modstab.cli.main(["run", source, "--out", out, "--quiet"] + seed_args(cfg, offset))
                    verdict = read_verdict(out)
                    if entry["exit"] is None:
                        entry["exit"] = rc
                    elif rc != entry["exit"]:
                        raise SystemExit(f"{name}: exit {rc} at offset {offset}, {entry['exit']} at 0")
                    entry["failed"][str(offset)] = verdict["failed"]
                    if offset == 0:
                        entry["n_converged"] = verdict["n_converged"]
                        entry["theta"] = verdict["theta"]
                reference[name] = entry
                print(f"{name}: exit {entry['exit']}", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
