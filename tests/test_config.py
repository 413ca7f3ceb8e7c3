"""The config schema: every shipped config parses, every misspelled key is
refused by name, and the README's config reference is written from the
schema.  ``PYTHONPATH=src python tests/test_config.py`` rewrites that
reference in README.md."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modstab import builtin_scenarios, config, run_scenario, scenarios

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
BEGIN = "<!-- config reference: written by reference() in tests/test_config.py -->\n"
END = "<!-- end of config reference -->\n"


def _module(relative):
    spec = importlib.util.spec_from_file_location(Path(relative).stem, ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _range_text(type_, bounds):
    if bounds is None:
        return ""
    if type_ in ("name", "name list"):
        return ", ".join(f"`{name}`" for name in bounds)
    if bounds == "positive":
        return "> 0"
    if isinstance(bounds, tuple):
        return f"≥ {bounds[0]}" if bounds[1] is None else f"[{bounds[0]}, {bounds[1]}]"
    return bounds.replace("|", "\\|")  # s's disc, in a markdown table


def _default_text(value):
    if value is config.REQUIRED:
        return "required"
    if isinstance(value, float) and "e" in f"{value:g}":
        return f"`{value:g}`"
    return f"`{json.dumps(value)}`"


RULES = (
    ("int", "take an int or a float that is a whole number, such as `64.0`; a fraction, a bool "
     "or a string such as `\"64\"` exits 2"),
    ("real", "take a finite int or float; a bool, a string such as `\"2\"`, NaN or `Infinity` "
     "exits 2"),
    ("real or calibrate", "take a real as above, or `\"calibrate\"`"),
    ("complex", "take a real or an `[re, im]` pair of reals"),
    ("complex list", "take a list whose every entry is a complex as above"),
    ("flag", "take a JSON `true` or `false` only"),
)


def reference():
    """The README's config reference, written from ``config.SCHEMA``: a
    table of every field, then the fields of each value type and how they
    are read."""
    lines = ["| field | runs | type | range | default | doc |", "|---|---|---|---|---|---|"]
    for path, type_, bounds, default, runs, doc in config.SCHEMA:
        lines.append(f"| `{path}` | {runs} | {type_} | {_range_text(type_, bounds)} | "
                     f"{_default_text(default)} | {doc} |")
    lines.append("")
    for type_, rule in RULES:
        fields = ", ".join(f"`{row[0]}`" for row in config.SCHEMA if row[1] == type_)
        lines.append(f"The {type_} fields ({fields}) {rule}.")
    return "\n".join(lines) + "\n"


def _readme_parts():
    text = README.read_text(encoding="utf-8")
    head, rest = text.split(BEGIN)
    block, tail = rest.split(END)
    return head, block, tail


def test_readme_config_reference_is_written_from_the_schema():
    assert _readme_parts()[1] == reference(), (
        "README.md's config reference is stale: run PYTHONPATH=src python tests/test_config.py")


def test_the_check_names_are_the_registry_of_checks():
    assert config.CHECKS == tuple(scenarios._CHECKS)


def _shipped_configs():
    configs = dict(builtin_scenarios())
    configs.update(_module("benchmarks/failing_configs.py").failing_configs())
    configs.update(_module("benchmarks/identity_configs.py").identity_configs())
    head = _readme_parts()[0]
    configs["readme-example"] = json.loads(re.search(r"```json\n(.*?)```", head, re.S).group(1))
    return configs


SHIPPED = _shipped_configs()


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_every_shipped_config_parses_with_no_unknown_key(name):
    values = config.parse(SHIPPED[name])
    assert values["name"] == SHIPPED[name].get("name", "unnamed")


def _typo(key, op, i, c):
    i = min(i, len(key) - (op != "insert"))
    if op == "delete":
        return key[:i] + key[i + 1:]
    if op == "insert":
        return key[:i] + c + key[i:]
    if op == "replace":
        return key[:i] + c + key[i + 1:]
    return key[:i] + key[i + 1:i + 2] + key[i] + key[i + 2:]  # swap key[i] and key[i + 1]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(config.SCHEMA), st.sampled_from(["delete", "insert", "replace", "swap"]),
       st.integers(0, 30), st.sampled_from("abcdefghijklmnopqrstuvwxyz_0123456789"))
def test_a_one_edit_typo_of_any_key_exits_two_and_names_it(row, op, i, c):
    path, runs = row[0], row[4]
    *parents, key = path.split(".")
    typo = _typo(key, op, i, c)
    kind = "axioms" if runs == "axioms" else "stability"
    siblings = {r[0].split(".")[-1] for r in config.SCHEMA
                if r[0].split(".")[:-1] == parents and r[4] in (kind, "any")}
    assume(typo not in siblings)
    # each builtin named holds every section of its kind
    cfg = builtin_scenarios()["axioms-suite" if kind == "axioms" else "corollary-ascending-p05"]
    section = cfg
    for name in parents:
        section = section[name[:-2]][0] if name.endswith("[]") else section[name]
    section[typo] = section.pop(key, None)

    result = run_scenario(cfg)
    assert result.exit_code == 2
    prefix = ".".join(parents).replace("[]", "[0]")
    dot = prefix + "." if prefix else ""
    [record] = result.records
    match = re.fullmatch(r"unknown config key (.*); did you mean '(.*)'\?", record.payload["error"])
    assert match and match.group(1) == repr(dot + typo)
    assert match.group(2).startswith(dot) and match.group(2)[len(dot):] in siblings


def _rewrite_readme():
    head, _, tail = _readme_parts()
    README.write_text(head + BEGIN + reference() + END + tail, encoding="utf-8")


if __name__ == "__main__":
    sys.exit(_rewrite_readme())
