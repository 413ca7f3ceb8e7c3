"""JSON-lines run reports.

One record per line.  The first line is a header (schema version, tool
version, config hash, seed, kernel backend, timestamp); every following
line is a self-describing record with a scenario name, a stage tag
(config / iterate / check), a pass bit, and a stage-specific payload.
Payload lines are deterministic for a fixed config; only the header
carries the timestamp.

A run's records are ``Records``: single ``ReportRecord``s (the config
echo, the iteration's levels, diagnostics) and ``CheckResult``s, read as
one flat sequence of records.  Every ``check``-stage line of every run,
stability or axioms, is a row of a ``CheckResult``.  A ``CheckResult`` is
what a check returns and what the report writes, with no conversion
between: its rows as columns, the measured side, the majorant and the
tolerance, and the one pass rule lhs - rhs <= tol.  A result of many rows writes its lines from
one template that ``json.dumps`` encodes itself, so per line only the
values are formatted; its lines are byte for byte ``ReportRecord.to_json``
of its rows, which are built only when read.
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

    def lines(self):
        """The record's report line, ending in a newline."""
        return self.to_json() + "\n"


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
# a value of a list column that leaves its key out of that row's payload
ABSENT = object()


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


class CheckResult(Rows):
    """The verdict of one check, one row per probe, scalar, level or axiom,
    held as columns; every check of every run returns this type.

    ``lhs`` is the measured side, ``rhs`` the majorant (an array or one
    number for every row) and ``tol`` the tolerance.  Row i passes iff
    ``margin[i] = lhs[i] - rhs[i] <= tol``, so a NaN fails: the one pass
    rule, computed here only.  ``columns`` maps each payload key to one
    value per row: a 1-D bool, int or float array, or a list of JSON
    values in which ``ABSENT`` leaves the key out of that row.  A row is
    a ``ReportRecord`` with the payload ``{"check": check, key: value, ..}``
    in ``scenario``, built only when read.
    """

    stage = "check"

    def __init__(self, check, lhs, rhs, tol, columns=None, advisory=False, scenario=None):
        self.check = check
        self.lhs = np.atleast_1d(np.asarray(lhs, dtype=np.float64))
        self.rhs = np.asarray(rhs, dtype=np.float64)
        self.tol = tol
        # an overflowing difference is the infinity of its sign, and inf - inf
        # is NaN, which fails
        with np.errstate(over="ignore", invalid="ignore"):
            self.margin = self.lhs - self.rhs
        self.passed = self.margin <= tol
        self.columns = columns or {}
        self.advisory = advisory
        self.scenario = scenario

    @classmethod
    def one(cls, check, lhs, rhs, tol, payload):
        """A one-row result whose payload is ``payload`` (after the check name)."""
        return cls(check, lhs, rhs, tol, {key: [v] for key, v in payload.items()})

    def __len__(self):
        return len(self.lhs)

    @property
    def n_failed(self):
        """The number of failed rows that count toward the exit code."""
        return 0 if self.advisory else int(np.count_nonzero(~self.passed))

    def _row(self, i):
        payload = {"check": self.check}
        for key, col in self.columns.items():
            if col[i] is not ABSENT:
                payload[key] = col[i].item() if isinstance(col, np.ndarray) else col[i]
        return ReportRecord(self.scenario, self.stage, payload, bool(self.passed[i]), self.advisory)

    def lines(self):
        """Every row's line, each ending in a newline, as one string.

        A result of one row, or with a list column, writes its rows'
        ``to_json``.  Otherwise json.dumps encodes one document whose pass
        bit and column values are slot markers, which fixes key order,
        separators and escaping; per line only the values are formatted
        into the slots."""
        names = list(self.columns)
        if len(self) == 1 or not all(isinstance(self.columns[k], np.ndarray) for k in names):
            return "".join(r.lines() for r in self)
        payload = {"check": self.check, **{key: _SLOT % j for j, key in enumerate(names, 1)}}
        doc = _doc(self.scenario, self.stage, _SLOT % 0, payload, self.advisory)
        parts = _SLOT_JSON.split(json.dumps(doc, sort_keys=True, allow_nan=True))
        order = [int(j) for j in parts[1::2]]
        if sorted(order) != list(range(len(names) + 1)):
            # the scenario or check name spells a slot marker itself
            return "".join(r.lines() for r in self)
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
    ``records`` is a ``Records`` or a list of its items; a ``CheckResult``
    answers by its ``n_failed``, without building its rows."""
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
        stream.write(r.lines())
