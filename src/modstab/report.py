"""JSON-lines run reports.

One record per line.  The first line is a header (schema version, tool
version, config hash, seed, kernel backend, timestamp); every following
line is a self-describing record with a scenario name, a stage tag
(config / iterate / check), a pass bit, and a stage-specific payload.
Payload lines are deterministic for a fixed config; only the header
carries the timestamp.

A run's records are ``Records``: single ``ReportRecord``s and
``ReportBlock``s, read as one flat sequence of records.  A block holds the
lines of one per-probe check as columns and writes them from one template
that ``json.dumps`` encodes itself, so per line only the values are
formatted; its lines are byte for byte ``ReportRecord.to_json`` of its
rows, which are built only when read.
"""

import hashlib
import json
import re
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import accumulate

import numpy as np

SCHEMA = "modstab-report/1"


def _doc(scenario, stage, passed, payload, advisory):
    doc = {"scenario": scenario, "stage": stage, "pass": passed, "payload": payload}
    if advisory:
        doc["advisory"] = True
    return doc


@dataclass(frozen=True)
class ReportRecord:
    scenario: str
    stage: str  # "config" | "iterate" | "check"
    payload: dict
    passed: bool
    advisory: bool = field(default=False)

    @property
    def n_failed(self):
        """1 when the line fails and counts toward the exit code, else 0."""
        return int(not self.advisory and not self.passed)

    def to_json(self):
        doc = _doc(self.scenario, self.stage, bool(self.passed), self.payload, self.advisory)
        return json.dumps(doc, sort_keys=True, allow_nan=True)


class Rows(Sequence):
    """A read-only sequence whose rows are built only when read.  A
    subclass gives ``__len__`` and ``_row(i)`` for 0 <= i < len.  Like a
    list, it equals any sequence with equal rows."""

    def __getitem__(self, i):
        at = range(len(self))[i]
        return [self._row(j) for j in at] if isinstance(i, slice) else self._row(at)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


class Records(Rows):
    """Records held as items, each a single record or a block of them (any
    ``Sequence``), read as one flat sequence of records.  Its length is the
    number of records, counted without building a block's rows."""

    def __init__(self, items):
        self.items = list(items)
        sizes = (len(it) if isinstance(it, Sequence) else 1 for it in self.items)
        self._starts = [0, *accumulate(sizes)]

    def __len__(self):
        return self._starts[-1]

    def __iter__(self):
        for item in self.items:
            if isinstance(item, Sequence):
                yield from item
            else:
                yield item

    def _row(self, i):
        at = bisect_right(self._starts, i) - 1
        item = self.items[at]
        return item[i - self._starts[at]] if isinstance(item, Sequence) else item


# a column's slot in a block's template; json spells it "\u0000<j>\u0000"
_SLOT = "\x00%d\x00"
_SLOT_JSON = re.compile(r'"\\u0000(\d+)\\u0000"')
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _column(col):
    """(format, values) that spell each value of a bool, int or float
    column as json.dumps does: ``%r`` of a Python int or finite float is
    its ``__repr__``, as in json; bools and non-finite floats go as text."""
    kind, values = col.dtype.kind, col.tolist()
    if kind == "b":
        return "%s", ["true" if v else "false" for v in values]
    if kind not in "iuf":
        raise TypeError(f"a report column must hold bools, ints or floats, not {col.dtype}")
    if kind == "f" and not np.isfinite(col).all():
        return "%s", [_NONFINITE.get(t, t) for t in map(float.__repr__, values)]
    return "%r", values


class ReportBlock(Rows):
    """The check lines of one per-probe check, held as columns.

    ``fixed`` holds the payload values every line shares (the check name),
    ``columns`` one 1-D int or float array per payload key that varies by
    line, and ``passed`` the pass bits.  Its rows are ``ReportRecord``s
    with the payload ``{**fixed, key: column[i], ...}``, built only when
    read; ``lines`` writes the block without building them.
    """

    stage = "check"

    def __init__(self, scenario, fixed, columns, passed, advisory=False):
        self.scenario = scenario
        self.fixed = fixed
        self.columns = {key: np.asarray(col) for key, col in columns.items()}
        self.passed = np.asarray(passed, dtype=bool)
        self.advisory = advisory

    def __len__(self):
        return len(self.passed)

    @property
    def n_failed(self):
        """The number of failed lines that count toward the exit code."""
        return 0 if self.advisory else int(np.count_nonzero(~self.passed))

    def _row(self, i):
        payload = {**self.fixed, **{key: col[i].item() for key, col in self.columns.items()}}
        return ReportRecord(self.scenario, self.stage, payload, bool(self.passed[i]), self.advisory)

    def lines(self):
        """Every line of the block, each ending in a newline, as one string.

        json.dumps encodes one document whose pass bit and column values
        are slot markers, which fixes key order, separators and escaping;
        per line only the values are formatted into the slots."""
        names = list(self.columns)
        payload = {**self.fixed, **{key: _SLOT % j for j, key in enumerate(names, 1)}}
        doc = _doc(self.scenario, self.stage, _SLOT % 0, payload, self.advisory)
        parts = _SLOT_JSON.split(json.dumps(doc, sort_keys=True, allow_nan=True))
        order = [int(j) for j in parts[1::2]]
        if sorted(order) != list(range(len(names) + 1)):
            # the scenario name spells a slot marker itself
            return "".join(r.to_json() + "\n" for r in self)
        columns = [_column(self.passed)] + [_column(self.columns[key]) for key in names]
        pieces = [p.replace("%", "%%") for p in parts[0::2]]
        fmt = "".join(p + columns[j][0] for p, j in zip(pieces, order)) + pieces[-1] + "\n"
        return "".join([fmt % line for line in zip(*(columns[j][1] for j in order))])


def config_hash(config):
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def header_record(config, seed, version, backend):
    return {
        "schema": SCHEMA,
        "tool": "modstab",
        "version": version,
        "config_hash": config_hash(config),
        "seed": seed,
        "backend": backend,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }


def _items(records):
    return records.items if isinstance(records, Records) else records


def count_failures(records):
    """The number of failed lines that count toward the exit code.
    ``records`` is a ``Records`` or a list of its items; a block answers by
    its ``n_failed``, without building its rows."""
    return sum(r.n_failed for r in _items(records))


def exit_code_from_records(records):
    """0 iff every asserted record passes, else 1; ``records`` as for
    ``count_failures``."""
    return 1 if count_failures(records) else 0


def write_report(header, records, stream):
    """The header line, then one line per record; ``records`` as for
    ``exit_code_from_records``."""
    stream.write(json.dumps(header, sort_keys=True) + "\n")
    for r in _items(records):
        stream.write(r.lines() if isinstance(r, ReportBlock) else r.to_json() + "\n")
