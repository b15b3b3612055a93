"""Exact HMM filtering, its dual optimal-control system, and fixed-point inference checks."""

__version__ = "0.1.0"

from .adapted import AdaptedProcess, prefixes, prefix_string, parse_prefix
from .hmm import (
    HmmModel,
    Spaces,
    decompose,
    gamma_op,
    scalar_obs,
    token_basis,
)
from .oracle import (
    ImpossibleObservationError,
    EnumerationBudgetError,
    exact_expectation,
    filter_process,
    forward_filter,
    next_token_prob,
    path_probability,
    sample_path,
)
from .predictor import (
    PredictorRepresentation,
    build_weights,
    evaluate,
    represent_conditional,
)
from .dual import (
    DualTrajectory,
    bsde_residual,
    duality_report,
    estimator_path,
    solve_bsde,
    solve_optimal,
    squared_error,
)
from .fixedpoint import (
    IterationTrace,
    apply_N_adapted,
    apply_N_path,
    bde_solve,
    fixed_point_residual,
    iterate,
    kl_divergence_bar,
    path_laws,
    scalar_feedback,
    step_law,
)

__all__ = [
    "__version__",
    "AdaptedProcess",
    "DualTrajectory",
    "EnumerationBudgetError",
    "HmmModel",
    "ImpossibleObservationError",
    "IterationTrace",
    "PredictorRepresentation",
    "Spaces",
    "apply_N_adapted",
    "apply_N_path",
    "bde_solve",
    "bsde_residual",
    "build_weights",
    "decompose",
    "duality_report",
    "estimator_path",
    "evaluate",
    "exact_expectation",
    "filter_process",
    "fixed_point_residual",
    "forward_filter",
    "gamma_op",
    "iterate",
    "kl_divergence_bar",
    "next_token_prob",
    "parse_prefix",
    "path_laws",
    "path_probability",
    "prefix_string",
    "prefixes",
    "represent_conditional",
    "sample_path",
    "scalar_feedback",
    "scalar_obs",
    "solve_bsde",
    "solve_optimal",
    "squared_error",
    "step_law",
    "token_basis",
]
