"""modstab: a desk-scale lab for perturbed two-variable maps into modular
spaces: direct-method extraction of the bi-additive limit, plus sampled
verification of every quantitative claim along the way."""

__version__ = "0.1.0"

from ._kernels import ACTIVE_BACKEND
from .algebra import (
    AlgebraSpec,
    UnimodularTriple,
    mul,
    preset,
    sample_unit_circle,
    three_unimodular_decomposition,
)
from .bimaps import (
    BiMap,
    Perturbation,
    ProbeSet,
    PsiEnvelope,
    check_psi_law,
    draw_probes,
    rho_tilde_contraction_margin,
    rho_tilde_tabulated,
    tilde_weights,
)
from .errors import (
    BracketDivergenceError,
    ConfigError,
    InvalidModularError,
    ModstabError,
    NonFiniteValueError,
    OutOfDiscError,
    OverflowAbort,
    PreconditionError,
)
from .modular import (
    ModularSpec,
    check_delta2,
    check_modular_axioms,
    check_remark_properties,
    coeff_norm_fn,
    draw_axiom_samples,
    draw_remark_samples,
    eval_modular,
    luxemburg_norm,
)
from .scenarios import (
    builtin_scenarios,
    calibrate_theta,
    list_builtin_scenarios,
    load_config,
    run_scenario,
)
from .stabilize import (
    LevelTable,
    StabilizeConfig,
    StabilizeOutcome,
    bounded_orbit_estimate,
    check_uniqueness,
    hyers_bound,
    stabilize,
)
from .report import CheckResult
from .verify import (
    check_biadditivity,
    check_biderivation,
    check_first_slot_linearity,
    check_inequality_A,
    check_inequality_B,
    check_stability_bound,
    check_superstability,
    check_telescoping,
    default_linearity_scalars,
)
