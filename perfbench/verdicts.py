"""Verdicts of one ``modstab run`` report and their comparison with the
reference taken from the commit that introduced the benchmark.

A verdict is the exit code plus the number of failed (non-advisory)
records per check.  At the default seed (pool offset 0) the reference also
pins ``n_converged`` and the calibrated or configured theta (relative
1e-9).  Payload floats stay out otherwise: a legitimate product-kernel
change moves their last bits.
"""

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
THETA_RTOL = 1e-9


def read_verdict(report_path):
    failed = {}
    n_converged = theta = None
    with open(report_path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if "schema" not in header:
            raise ValueError("report has no header line")
        for line in fh:
            rec = json.loads(line)
            payload = rec["payload"]
            if rec["stage"] == "config":
                theta = payload.get("theta", theta)
            if payload.get("check") == "stabilize":
                n_converged = payload["n_converged"]
            if not rec["pass"] and not rec.get("advisory", False):
                key = payload.get("check", rec["stage"])
                failed[key] = failed.get(key, 0) + 1
    return {"failed": failed, "n_converged": n_converged, "theta": theta}


def load_reference():
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(ref, exit_code, verdict, offset):
    """Differences between one operation and the reference, as strings."""
    out = []
    if exit_code != ref["exit"]:
        out.append(f"exit {exit_code} != {ref['exit']}")
    want = ref["failed"][str(offset)]
    if verdict["failed"] != want:
        out.append(f"failed records {verdict['failed']} != {want}")
    if offset == 0:
        if verdict["n_converged"] != ref["n_converged"]:
            out.append(f"n_converged {verdict['n_converged']} != {ref['n_converged']}")
        theta, want_theta = verdict["theta"], ref["theta"]
        if (theta is None) != (want_theta is None) or (
            theta is not None and abs(theta - want_theta) > THETA_RTOL * abs(want_theta)
        ):
            out.append(f"theta {theta} != {want_theta}")
    return out
