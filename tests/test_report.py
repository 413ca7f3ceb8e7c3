"""The report layer: a column block writes exactly the bytes json.dumps gives
its rows, and a run's records read as one flat sequence of report lines."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modstab.report import Records, ReportBlock, ReportRecord, exit_code_from_records, write_report
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


def expected_lines(block):
    """One json.dumps per row, from the block's raw column values."""
    lists = {key: col.tolist() for key, col in block.columns.items()}
    return [
        json.dumps(row_doc(block.scenario, block.fixed, {k: v[i] for k, v in lists.items()},
                           bool(block.passed[i]), block.advisory),
                   sort_keys=True, allow_nan=True) + "\n"
        for i in range(len(block))
    ]


def make_block(scenario, values, passed, advisory, extras):
    n = len(passed)
    columns = {"probe_id": np.arange(n), "lhs": np.array(values[:n], dtype=np.float64),
               "rhs": np.array(values[n:2 * n], dtype=np.float64),
               "margin": np.array(values[2 * n:3 * n], dtype=np.float64)}
    if extras:
        columns["corollary_rhs"] = np.array(values[3 * n:], dtype=np.float64)
    return ReportBlock(scenario, {"check": "stability_bound"}, columns, np.array(passed, dtype=bool),
                       advisory=advisory)


@st.composite
def blocks(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    extras = draw(st.booleans())
    values = draw(st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()),
                           min_size=4 * n, max_size=4 * n))
    passed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    scenario = draw(st.one_of(st.sampled_from(NAMES), st.text(max_size=12)))
    return make_block(scenario, values, passed, draw(st.booleans()), extras)


@settings(max_examples=150, deadline=None)
@given(blocks())
def test_block_lines_are_json_dumps_of_each_row(block):
    want = expected_lines(block)
    assert block.lines() == "".join(want)
    assert [r.to_json() + "\n" for r in block] == want


@pytest.mark.parametrize("scenario", NAMES)
@pytest.mark.parametrize("n", [0, 1, len(EDGE_FLOATS)])
@pytest.mark.parametrize("advisory", [False, True])
@pytest.mark.parametrize("extras", [False, True])
def test_block_lines_at_the_edges(scenario, n, advisory, extras):
    values = (EDGE_FLOATS * 4)[: 4 * n]
    block = make_block(scenario, values, [i % 2 == 0 for i in range(n)], advisory, extras)
    assert block.lines() == "".join(expected_lines(block))
    assert exit_code_from_records([block]) == (1 if n > 1 and not advisory else 0)


def test_records_read_blocks_as_their_rows():
    echo = ReportRecord("s", "config", {"config_name": "s"}, True)
    tail = ReportRecord("s", "check", {"check": "uniqueness"}, False, advisory=True)
    first = make_block("s", [0.5, -1.0, 2.0, 1.0, -3.0, 4.0, 0.0, 0.25, -1.5], [True, False, True],
                       False, False)
    empty = make_block("s", [], [], False, True)
    second = make_block("s", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], [True, True], True, True)
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


@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
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
