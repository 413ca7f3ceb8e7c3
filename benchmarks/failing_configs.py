"""Builtin variants whose runs fail checks, so that a payload diff also
covers the lines a check writes when it fails.

    PYTHONPATH=src python benchmarks/failing_configs.py DIR

writes each config as DIR/<name>.json and prints the paths, one a line.
Each run exits 1; the failing checks are named beside each config.
"""

import json
import sys
from pathlib import Path

from modstab import builtin_scenarios


def _variant(builtin, name, edit):
    cfg = builtin_scenarios()[builtin]
    cfg["name"] = name
    edit(cfg)
    return cfg


def failing_configs():
    """name -> config of every variant."""

    def conjugate_product(cfg):  # first_slot_linearity at the non-real scalars
        cfg["map"]["kernel"] = {"form": "conjugate_product", "c": [1.0, 0.0]}

    def bounded_osc(cfg):  # superstability
        cfg["map"]["perturbation"] = {"name": "bounded_osc", "epsilon": 0.01}

    def psi_l(cfg):  # psi_law, which halts the run
        cfg["psi"]["L"] = 0.1

    def product_radius_4(cfg):  # biderivation_slot1 and biderivation_slot2
        cfg["map"]["kernel"] = {"form": "product", "c": [1.0, 0.0]}
        cfg["probes"]["radius"] = 4.0

    def radius_16(cfg):  # stabilize, biadditivity_slot1 and biadditivity_slot2
        cfg["probes"]["radius"] = 16.0

    def kappa_dead_zone(cfg):  # delta2 (power p = 2, orlicz "square") and modular_axiom
        power, square, dead_zone = cfg["fixtures"][1:]
        power["modular"]["p"] = 2.0
        square["check_delta2"] = True
        del dead_zone["expect_violation"]  # its definiteness row now fails as it is

    variants = [
        ("corollary-ascending-p05", "ascending-conjugate-product", conjugate_product),
        ("superstability-commutator", "superstability-bounded-osc", bounded_osc),
        ("corollary-ascending-p05", "ascending-psi-L-0.1", psi_l),
        ("superstability-commutator", "superstability-product-radius-4", product_radius_4),
        ("corollary-descending-p2", "descending-radius-16", radius_16),
        # an undersized envelope, one per telescoping majorant form:
        # inequality_A, stability_bound, telescoping (ascending) and bounded_orbit
        ("corollary-ascending-p05", "ascending-theta-0.001",
         lambda cfg: cfg["psi"].update(theta=0.001)),
        # inequality_A and telescoping (kappa_both_slots)
        ("corollary-descending-p2", "descending-theta-0.005",
         lambda cfg: cfg["psi"].update(theta=0.005)),
        # inequality_B, stability_bound and telescoping (kappa_first_zero)
        ("inequality-B-descending", "inequality-B-theta-0.001",
         lambda cfg: cfg["psi"].update(theta=0.001)),
        ("axioms-suite", "axioms-kappa-dead-zone", kappa_dead_zone),
    ]
    return {name: _variant(builtin, name, edit) for builtin, name, edit in variants}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: failing_configs.py DIR", file=sys.stderr)
        return 2
    for name, cfg in failing_configs().items():
        path = Path(argv[0]) / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
