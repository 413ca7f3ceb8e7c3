"""The lines of ``src/modstab`` that no shipped run reaches.

    PYTHONPATH=src python benchmarks/reach.py

runs ``run_scenario`` on every builtin, every generated config of
``identity_configs.py`` and every failing variant of ``failing_configs.py``,
each at its default seed and with seed override 7, and writes each report
to a discarded stream, as ``modstab run`` does, under a ``sys.settrace``
line trace.  It then prints, grouped by file, each line of a function body in
``src/modstab`` that no run executed (class and module bodies, which run at
import, are left out), and the count per file.  A line on the list is a
dead branch, a second path for a job done elsewhere, or a guard that only a
test or a malformed config reaches.  The trace takes a few seconds; no test or CI step runs it.
"""

import importlib.util
import inspect
import io
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "modstab"
SEEDS = (None, 7)


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


def main():
    executed = {}
    sys.settrace(_tracer(executed))  # before the import, so code run at import counts too
    from modstab import builtin_scenarios, run_scenario
    from modstab.report import write_report

    configs = dict(builtin_scenarios())
    configs.update(_module("identity_configs").identity_configs())
    configs.update(_module("failing_configs").failing_configs())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for cfg in configs.values():
            for seed in SEEDS:
                result = run_scenario(cfg, seed_override=seed)
                write_report(result.header, result.records, io.StringIO())
    sys.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        missed = sorted(_body_lines(compile(source, str(path), "exec"))
                        - executed.get(str(path), set()))
        if not missed:
            continue
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} lines never executed")
        for line in missed:
            print(f"  {line:5d}  {text[line - 1].strip()}")
    print(f"{total} lines in {len(configs)} configs x {len(SEEDS)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
