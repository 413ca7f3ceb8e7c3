"""The lines of ``src/modstab`` that no shipped run reaches.

    PYTHONPATH=src python benchmarks/reach.py

runs ``modstab run`` through ``cli.main`` on every builtin, every generated
config of ``identity_configs.py`` and every failing variant of
``failing_configs.py`` (each written to a temporary JSON file), each at its
default seed and with ``--seed-override 7`` and its report written with
``--out`` to a temporary file, plus one call of each one-shot command
(``list``, ``norm``, ``decompose``), all under a ``sys.settrace`` line
trace.  It then prints, grouped by file, each line of a function body in
``src/modstab`` that no run executed (class and module bodies, which run at
import, are left out), and the count per file.  A line on the list is a
dead branch, a second path for a job done elsewhere, or a guard that only a
test or a malformed config reaches.

Last it compares the list with ``benchmarks/reach_expected.txt``, whose
entries are ``<file>: <line text, stripped>``, one a line, a line repeated
as often as it is unreached; ``#`` lines are comments, under which the file
marks which entries are guards.  Keyed by text, an entry does not move when
lines are added or removed elsewhere in its file.  It prints each unreached
line that the file does not list and each entry of the file that is now
reached, and exits 1 when there is either, so the file always matches the
trace.  The trace takes a few seconds.  The set of traced lines follows the
interpreter's line table, so the file holds for the Python version it was
written with (3.11).
"""

import contextlib
import importlib.util
import inspect
import io
import json
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "modstab"
EXPECTED = ROOT / "benchmarks" / "reach_expected.txt"
SEEDS = (None, 7)
ONE_SHOTS = (["list"], ["norm", "power:1.5", "[3, [0, 4]]"],
             ["decompose", "0.3", "-0.4"])


def _tracer(executed):
    """A ``sys.settrace`` hook that adds each line a frame of ``src/modstab``
    executes to ``executed``, a mapping of file -> line numbers."""
    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in executed:
            if not filename.startswith(str(PACKAGE)):
                return None
            executed[filename] = set()
        executed[filename].add(frame.f_code.co_firstlineno)  # the def line
        return local

    return hook


def _body_lines(code):
    """The line numbers of every function body inside ``code``, nested ones
    included; a body's def line is its first."""
    lines = set()
    if code.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class or module body
        lines.add(code.co_firstlineno)
        lines.update(line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if inspect.iscode(const):
            lines |= _body_lines(const)
    return lines


def _module(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_everything(executed):
    """Trace every shipped run into ``executed``; returns the config count."""
    sys.settrace(_tracer(executed))  # before the import, so code run at import counts too
    from modstab import builtin_scenarios, cli

    with tempfile.TemporaryDirectory() as tmp:
        configs = list(builtin_scenarios())
        generated = {**_module("identity_configs").identity_configs(),
                     **_module("failing_configs").failing_configs()}
        for name, cfg in generated.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            configs.append(str(path))
        out = str(Path(tmp) / "report.jsonl")
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            for config in configs:
                for seed in SEEDS:
                    seed_args = [] if seed is None else ["--seed-override", str(seed)]
                    cli.main(["run", config, *seed_args, "--out", out])
            for argv in ONE_SHOTS:
                cli.main(argv)
    sys.settrace(None)
    return len(configs)


def unreached():
    """(file relative to the repo, line number, stripped text) of each
    unreached line, in file and line order, and the config count."""
    executed = {}
    n_configs = _run_everything(executed)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        lines = _body_lines(compile(source, str(path), "exec")) - executed.get(str(path), set())
        rel = path.relative_to(ROOT).as_posix()
        missed += [(rel, line, text[line - 1].strip()) for line in sorted(lines)]
    return missed, n_configs


def compare(missed):
    """Print the unreached lines that ``EXPECTED`` does not list and the
    entries it lists that are reached; True when there are neither."""
    listed = Counter(line for line in EXPECTED.read_text(encoding="utf-8").splitlines()
                     if line.strip() and not line.startswith("#"))
    found = Counter(f"{rel}: {text}" for rel, _, text in missed)
    new, reached = found - listed, listed - found
    for entry in sorted(reached.elements()):
        print(f"now reached, remove from {EXPECTED.name}: {entry}")
    for entry in sorted(new.elements()):
        print(f"unreached, not in {EXPECTED.name}: {entry}")
    print(f"{sum(new.values())} unreached lines not listed, "
          f"{sum(reached.values())} listed lines reached")
    return not new and not reached


def main():
    missed, n_configs = unreached()
    by_file = Counter(rel for rel, _, _ in missed)
    for rel in by_file:
        print(f"{rel}: {by_file[rel]} lines never executed")
        for r, line, text in missed:
            if r == rel:
                print(f"  {line:5d}  {text}")
    print(f"{len(missed)} lines in {n_configs} configs x {len(SEEDS)} seeds "
          f"and {len(ONE_SHOTS)} one-shot commands")
    return 0 if compare(missed) else 1


if __name__ == "__main__":
    sys.exit(main())
