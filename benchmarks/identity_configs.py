"""The generated configs that a payload diff between two trees runs
besides the builtins and the failing variants of ``failing_configs.py``:

- ``orlicz-luxemburg``, the benchmark's Orlicz workload, whose 1-homogeneous
  "linear" preset takes the closed-form Luxemburg norm;
- ``orlicz-luxemburg-exp-minus-one``, the same config with phi
  "exp_minus_one", which takes the bisected norm and its memo;
- the two calibrated builtins without their iteration section (and the
  checks that need it), the path on which calibration builds its own level
  table;
- ``corollary-ascending-p05-structure``, that builtin with matrix2's 64
  structure constants given as ``algebra.dim`` 4 and ``structure``, the
  path of ``build_algebra`` that takes explicit constants;
- ``ascending-complex-c-B``, that builtin with kernel coefficient
  0.6 - 0.8i and the checks inequality_B, biderivation, biadditivity and
  stability_bound: the general-coefficient product, calibrated ascending
  inequality B (whose scaled family is empty) and the advisory slot-two
  biderivation rows.

    PYTHONPATH=src python benchmarks/identity_configs.py DIR

writes each config as DIR/<name>.json and prints the paths, one a line.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import orlicz_luxemburg_config  # noqa: E402

from modstab import builtin_scenarios, preset  # noqa: E402
from modstab.scenarios import _NEEDS_ITERATION  # noqa: E402


def identity_configs():
    """name -> config of every generated config of the set."""
    orlicz = orlicz_luxemburg_config()
    exp_minus_one = orlicz_luxemburg_config()
    exp_minus_one["name"] = "orlicz-luxemburg-exp-minus-one"
    exp_minus_one["modular"]["phi"] = "exp_minus_one"
    configs = {cfg["name"]: cfg for cfg in (orlicz, exp_minus_one)}
    for name in ("corollary-descending-p2", "corollary-ascending-p05"):
        cfg = builtin_scenarios()[name]
        cfg["name"] = name + "-no-iteration"
        cfg["iteration"] = None
        cfg["checks"] = [c for c in cfg["checks"] if c not in _NEEDS_ITERATION]
        configs[cfg["name"]] = cfg
    cfg = builtin_scenarios()["corollary-ascending-p05"]
    cfg["name"] = "corollary-ascending-p05-structure"
    cfg["algebra"] = {"dim": 4, "structure": preset("matrix2").structure.real.ravel().tolist()}
    configs[cfg["name"]] = cfg
    cfg = builtin_scenarios()["corollary-ascending-p05"]
    cfg["name"] = "ascending-complex-c-B"
    cfg["map"]["kernel"]["c"] = [0.6, -0.8]
    cfg["checks"] = ["inequality_B", "biderivation", "biadditivity", "stability_bound"]
    configs[cfg["name"]] = cfg
    return configs


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: identity_configs.py DIR", file=sys.stderr)
        return 2
    for name, cfg in identity_configs().items():
        path = Path(argv[0]) / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
