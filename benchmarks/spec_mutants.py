"""Check that ``tests/test_spec.py`` tells a broken package from a sound one.

    python benchmarks/spec_mutants.py

copies ``src`` to a temporary directory and runs
``pytest tests/test_spec.py -x -q`` against the clean copy, then against
the copy with each one-line mutant of ``MUTANTS`` applied alone.  It prints
one line per run and exits 1 unless the clean copy passes and every mutant
fails.  On a 2-vCPU x86-64 host the clean run takes about 10 s and the
whole check about 20 s, since ``-x`` ends a mutant's run at its first
failure.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> (file under src/modstab, line as it is, line as mutated).  The
# orbit estimate's guard widening is not among them: removed, it moves no bit
# of any run test_spec makes; test_stabilize's dead-zone kink case pins it.
MUTANTS = {
    "calibration safety 1.5": (
        "scenarios.py", "CALIBRATION_SAFETY = 1.05", "CALIBRATION_SAFETY = 1.5"),
    "the iteration freezes one level early": (
        "stabilize.py", "frozen, converged = len(levels), ",
        "frozen, converged = len(levels) - 1, "),
    "calibration drops a kept row": (
        "scenarios.py", "return np.flatnonzero(rows)", "return np.flatnonzero(rows)[:-1]"),
    "the magnitude cap one level higher": (
        "stabilize.py", "(n - 1 for n in range(1024)", "(n for n in range(1024)"),
    "calibration's envelope terms one level off": (
        "scenarios.py", "_majorant_terms(theorem, psi1, x, range(j, ",
        "_majorant_terms(theorem, psi1, x, range(j + 1, "),
    "the descending majorant one power of two off": (
        "theorem.py", 'Theorem("descending", "A", y_is_x=True, term_offset=0, step=(1, -1)',
        'Theorem("descending", "A", y_is_x=True, term_offset=0, step=(1, 0)'),
    "the substitution ignores inequality B": (
        "theorem.py", 'Theorem("descending", "B", y_is_x=False, term_offset=1, step=(1, -1), '
        'family=(2, -1))',
        'Theorem("descending", "B", y_is_x=True, term_offset=0, step=(1, -1), family=(1, -1))'),
    "inequality A's left side reads f(l(x - y), z - w) for f(l(x + y), z - w)": (
        "verify.py", "(lamc * xp, zp), (lamc * xp, zm),", "(lamc * xp, zp), (lamc * xm, zm),"),
    "a stacked map call's pairs come back in reverse order": (
        "bimaps.py", "list(vals.reshape(len(xs), n, vals.shape[1]))",
        "list(vals.reshape(len(xs), n, vals.shape[1]))[::-1]"),
    "ascending B gets a scaled family": (
        "theorem.py", 'Theorem("ascending", "B", y_is_x=True, term_offset=1, step=(-1, 0), '
        'family=None)',
        'Theorem("ascending", "B", y_is_x=True, term_offset=1, step=(-1, 0), family=(2, 1))'),
}


def passes(src):
    """Whether test_spec passes with the package at ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, "-m", "pytest", "tests/test_spec.py", "-x", "-q",
           "-p", "no:cacheprovider"]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True).returncode == 0


def main():
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        clean = passes(src)
        print(f"clean copy: {'passes' if clean else 'FAILS'}")
        ok &= clean
        for name, (file, old, new) in MUTANTS.items():
            path = src / "modstab" / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"{name}: the line to mutate is not in {file} exactly once")
                ok = False
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            try:
                killed = not passes(src)
            finally:
                path.write_text(text, encoding="utf-8")
            print(f"{name}: {'killed' if killed else 'SURVIVED'}")
            ok &= killed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
