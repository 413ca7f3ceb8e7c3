"""Known false passes: planted defects whose run passes today, or fails
for the wrong reason, one strict xfail each, named by the ROADMAP item
that must mend it.  A row asserts the check that should fail, not only the
exit code.  A change that mends a row makes it pass, which ``strict``
turns into a failure until the row's marker is removed, so no fix lands
unseen.
"""

from collections import Counter

import pytest

from modstab import builtin_scenarios, run_scenario

COMMUTATOR = {"form": "commutator", "c": [1.0, 0.0]}

# row -> (builtin, sections replaced, prefix of a check that must fail,
#         check that must pass, the item that mends it)
ROWS = {
    # kappa_hat is 4.0 on both modulars, so kappa L / 2 >= 1 and the
    # descending contraction fails, and no record says so
    "descending-power-p2-kappa-2": (
        "corollary-descending-p2", {"modular": {"kind": "power", "p": 2.0, "kappa": 2.0}},
        "delta2", None, "item 2(a): the delta2 precondition"),
    "descending-orlicz-square-kappa-2": (
        "corollary-descending-p2", {"modular": {"kind": "orlicz", "phi": "square", "kappa": 2.0}},
        "delta2", None, "item 2(a): the delta2 precondition"),
    # x z is no biderivation of matrix2 (residual 2.04), yet its Leibniz
    # residuals pass against the wider envelope
    "superstability-product-kernel": (
        "superstability-commutator",
        {"map": {"kernel": {"form": "product", "c": [1.0, 0.0]}, "perturbation": None}},
        "biderivation", None, "item 7: the limit is a biderivation"),
    # the planted falsifier at output scale 2^-40 falls under absolute floors
    "lemma-falsifier-2^-40": (
        "lemma-falsifier",
        {"map": {"kernel": None, "perturbation": {"name": "quad_slot1", "epsilon": 2.0**-40}}},
        "inequality_A", None, "item 1: verdicts that do not depend on units"),
    # the slot-one quadratic term doubles at each level, so no limit exists;
    # calibration returns theta 6.1e16 and the run halts on psi_law alone,
    # whose absolute floor meets the rounding of a 1e16-sized envelope
    "ascending-quad-slot1": (
        "corollary-ascending-p05",
        {"map": {"kernel": COMMUTATOR, "perturbation": {"name": "quad_slot1", "epsilon": 0.01}}},
        "stabilize", "psi_law", "items 1 and 14: relative floors, told from rounding"),
}


@pytest.mark.parametrize("seed", [None, 7])
@pytest.mark.parametrize("row", [
    pytest.param(row, marks=pytest.mark.xfail(strict=True, reason=ROWS[row][-1]))
    for row in ROWS])
def test_a_planted_defect_fails_its_check(row, seed):
    builtin, sections, fails, passes, _ = ROWS[row]
    cfg = builtin_scenarios()[builtin]
    cfg.update(sections)
    result = run_scenario(cfg, seed_override=seed)
    failed = Counter(r.payload.get("check") for r in result.records
                     if not r.passed and not r.advisory)
    assert result.exit_code == 1
    assert any(check.startswith(fails) for check in failed if check)
    assert passes not in failed
