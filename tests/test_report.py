"""The report layer: a check result writes exactly the bytes json.dumps gives
its rows, its rows pass by lhs - rhs <= tol, and a run's records read as one
flat sequence of report lines."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modstab.report import (
    ABSENT,
    CheckResult,
    Records,
    ReportRecord,
    exit_code_from_records,
    write_report,
)
from modstab.scenarios import builtin_scenarios, run_scenario

EDGE_FLOATS = [
    float("nan"), float("inf"), -float("inf"), 0.0, -0.0,
    5e-324, -1e-310, 2.2250738585072014e-308, 1.7e308, -1.7e308, 0.1, -2.5e-17, 123456789.0,
]
# json escapes quotes, backslashes, tabs and non-ASCII; % must survive the
# line format; the last two spell a column slot of the block's template
NAMES = ["plain", 'quo"te', "back\\slash", "100%", "%s %d %%", "tab\there", "ψ-Δ é 数",
         'x"\x001\x00', "\x000\x00"]


def row_doc(scenario, fixed, values, passed, advisory):
    doc = {"scenario": scenario, "stage": "check", "pass": passed, "payload": {**fixed, **values}}
    if advisory:
        doc["advisory"] = True
    return doc


def rule(block):
    """Each row's pass bit by the rule lhs - rhs <= tol, in Python floats,
    where inf - inf is NaN and a NaN fails."""
    return [lhs - rhs <= block.tol for lhs, rhs in zip(block.lhs.tolist(), block.rhs.tolist())]


def expected_lines(block):
    """One json.dumps per row, from the block's raw column values."""
    lists = {key: col.tolist() for key, col in block.columns.items()}
    return [
        json.dumps(row_doc(block.scenario, {"check": block.check},
                           {k: v[i] for k, v in lists.items()}, passed, block.advisory),
                   sort_keys=True, allow_nan=True) + "\n"
        for i, passed in enumerate(rule(block))
    ]


def make_block(scenario, values, tol, advisory, extras):
    """A stability_bound result of n = len(values) // 4 rows, whose payload
    columns need not be its lhs and rhs."""
    n = len(values) // 4
    lhs, rhs = np.array(values[:n]), np.array(values[n:2 * n])
    columns = {"probe_id": np.arange(n), "lhs": lhs, "rhs": np.array(values[::-1][:n]),
               "margin": np.array(values[2 * n:3 * n], dtype=np.float64)}
    if extras:
        columns["corollary_rhs"] = np.array(values[3 * n:], dtype=np.float64)
    return CheckResult("stability_bound", lhs, rhs, tol, columns, advisory=advisory,
                       scenario=scenario)


@st.composite
def blocks(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    extras = draw(st.booleans())
    values = draw(st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()),
                           min_size=4 * n, max_size=4 * n))
    tol = draw(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()))
    scenario = draw(st.one_of(st.sampled_from(NAMES), st.text(max_size=12)))
    return make_block(scenario, values, tol, draw(st.booleans()), extras)


@settings(max_examples=150, deadline=None)
@given(blocks())
def test_block_lines_are_json_dumps_of_each_row(block):
    want = expected_lines(block)
    assert block.passed.tolist() == rule(block)
    assert block.lines() == "".join(want)
    assert [r.to_json() + "\n" for r in block] == want


@pytest.mark.parametrize("scenario", NAMES)
@pytest.mark.parametrize("n", [0, 1, len(EDGE_FLOATS)])
@pytest.mark.parametrize("advisory", [False, True])
@pytest.mark.parametrize("extras", [False, True])
def test_block_lines_at_the_edges(scenario, n, advisory, extras):
    values = (EDGE_FLOATS * 4)[: 4 * n]
    for tol in (0.0, 1e-9, float("inf"), float("nan")):
        block = make_block(scenario, values, tol, advisory, extras)
        assert block.passed.tolist() == rule(block)
        assert block.lines() == "".join(expected_lines(block))
        assert block.n_failed == (0 if advisory else rule(block).count(False))
        assert exit_code_from_records([block]) == (1 if block.n_failed else 0)


def test_list_columns_write_each_row_and_absent_leaves_its_key_out():
    # a pair and a key that only some rows carry, as the linearity check's
    # lam, route and M; an int and a float array beside them
    block = CheckResult("first_slot_linearity", [0.5, float("nan"), 2.0], 0.0, 1.0,
                        {"lam": [[1.0, 0.0], [0.0, -1.0], [2.0, 1.0]],
                         "M": [ABSENT, ABSENT, 9], "probe_id": np.arange(3),
                         "direct": np.array([0.5, float("nan"), 1.5])}, scenario="s")
    rows = [r.payload for r in block]
    assert rows[0] == {"check": "first_slot_linearity", "lam": [1.0, 0.0], "probe_id": 0,
                       "direct": 0.5}
    assert "M" not in rows[1] and rows[2]["M"] == 9
    assert block.passed.tolist() == [True, False, False]
    assert block.lines() == "".join(r.to_json() + "\n" for r in block)


def test_records_read_blocks_as_their_rows():
    echo = ReportRecord("s", "config", {"config_name": "s"}, True)
    tail = ReportRecord("s", "check", {"check": "uniqueness"}, False, advisory=True)
    first = make_block("s", [0.5, 2.0, 2.0, 1.0, -3.0, 4.0, 0.0, 0.25, -1.5, 0.0, 0.0, 0.0], 0.0,
                       False, False)
    empty = make_block("s", [], 0.0, False, True)
    second = make_block("s", [1.0, 9.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 0.0, True, True)
    assert first.passed.tolist() == [True, False, True]
    assert second.passed.tolist() == [True, False]  # advisory
    records = Records([echo, first, empty, second, tail])
    flat = [echo, *first, *second, tail]
    assert len(records) == len(flat) == 7
    assert list(records) == flat and records == flat
    assert [records[i] for i in range(-7, 7)] == flat + flat
    assert records[2:6] == flat[2:6]
    with pytest.raises(IndexError):
        records[7]
    assert exit_code_from_records(records) == 1  # the second row of ``first``
    assert exit_code_from_records(Records([echo, second, tail])) == 0  # advisory failures only


def own_seed(cfg):
    section = cfg["samples"] if cfg.get("kind") == "axioms" else cfg["probes"]
    return int(section.get("seed", 0))


# test_spec compares the stability builtins' lines with ReportRecord.to_json
AXIOMS = [n for n, c in builtin_scenarios().items() if c.get("kind") == "axioms"]


@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("name", AXIOMS)
def test_builtin_report_is_json_dumps_of_its_records(name, offset):
    seed = None if offset == 0 else own_seed(builtin_scenarios()[name]) + offset
    result = run_scenario(name, seed_override=seed)
    out = io.StringIO()
    write_report(result.header, result.records, out)
    header, *lines = out.getvalue().split("\n")[:-1]
    assert json.loads(header)["schema"] == "modstab-report/1"
    assert len(result.records) == len(lines)
    assert lines == [
        json.dumps(row_doc(r.scenario, {}, r.payload, r.passed, r.advisory) | {"stage": r.stage},
                   sort_keys=True, allow_nan=True)
        for r in result.records
    ]
    failed = [r for r in result.records if not r.advisory and not r.passed]
    assert result.exit_code == (1 if failed else 0)
    assert result.exit_code == (1 if name == "lemma-falsifier" else 0)
