"""Compare the payload lines of two modstab JSON-lines reports.

    python benchmarks/record_diff.py A.jsonl B.jsonl

Header lines (the ones carrying ``schema``) hold the timestamp and are
skipped; the remaining records are paired in order, so concatenated
reports work too.  For each scenario it prints how many paired lines are
byte-identical and the largest absolute change of any numeric payload
leaf.  Exits 1 when the record counts or any pass bit differ, else 0.
"""

import json
import math
import sys
from collections import defaultdict


def read_records(path):
    """(line, parsed record) for every non-header line of a report."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.strip():
                doc = json.loads(line)
                if "schema" not in doc:
                    out.append((line, doc))
    return out


def max_change(a, b):
    """Largest |a - b| over the numeric leaves the two values share."""
    if isinstance(a, dict) and isinstance(b, dict):
        return max((max_change(a[k], b[k]) for k in a.keys() & b.keys()), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        return max((max_change(x, y) for x, y in zip(a, b)), default=0.0)
    numeric = (int, float)
    if isinstance(a, bool) or isinstance(b, bool) or not (isinstance(a, numeric) and isinstance(b, numeric)):
        return 0.0
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    d = abs(a - b)
    return d if d == d else math.inf  # a NaN against a number


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: record_diff.py A.jsonl B.jsonl", file=sys.stderr)
        return 2
    a, b = (read_records(p) for p in argv)
    same = defaultdict(int)
    total = defaultdict(int)
    change = defaultdict(float)
    pass_flips = []
    for i, ((la, da), (lb, db)) in enumerate(zip(a, b)):
        name = da.get("scenario", "?")
        total[name] += 1
        same[name] += la == lb
        change[name] = max(change[name], max_change(da.get("payload"), db.get("payload")))
        if da.get("pass") != db.get("pass"):
            pass_flips.append((i, name))
    width = max([len("scenario")] + [len(n) for n in total])
    print(f"{'scenario':<{width}}  identical/total  max_abs_change")
    for name in total:
        count = f"{same[name]}/{total[name]}"
        print(f"{name:<{width}}  {count:>15}  {change[name]:.3g}")
    failed = False
    if len(a) != len(b):
        print(f"record counts differ: {len(a)} vs {len(b)}")
        failed = True
    for i, name in pass_flips:
        print(f"pass bit differs at record {i} ({name})")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
