"""Exact HMM filtering, its dual optimal-control system, and fixed-point inference checks."""

__version__ = "0.1.0"

from .adapted import AdaptedProcess, prefixes, prefix_string
from .hmm import HmmModel, decompose, gamma_op, token_basis
from .oracle import (
    ImpossibleObservationError,
    EnumerationBudgetError,
    exact_expectation,
    filter_levels,
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
    "apply_N_adapted",
    "apply_N_path",
    "bde_solve",
    "build_weights",
    "decompose",
    "duality_report",
    "estimator_path",
    "evaluate",
    "exact_expectation",
    "filter_levels",
    "filter_process",
    "fixed_point_residual",
    "forward_filter",
    "gamma_op",
    "iterate",
    "kl_divergence_bar",
    "next_token_prob",
    "path_laws",
    "path_probability",
    "prefix_string",
    "prefixes",
    "represent_conditional",
    "sample_path",
    "scalar_feedback",
    "solve_bsde",
    "solve_optimal",
    "squared_error",
    "step_law",
    "token_basis",
]
