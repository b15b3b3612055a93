"""Exact HMM filtering, its dual optimal-control system, and fixed-point inference checks.

The public names load on first use (PEP 562): ``import dualfilter`` imports
no submodule, and ``dualfilter.forward_filter`` imports ``dualfilter.oracle``
and returns its current binding. Nothing is cached here, so a name patched
in its module is what the package returns.
"""

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it
_SOURCES = {
    "adapted": ("AdaptedProcess", "prefix_string", "prefixes"),
    "hmm": ("HmmModel", "decompose", "gamma_op", "token_basis"),
    "oracle": (
        "EnumerationBudgetError",
        "ImpossibleObservationError",
        "exact_expectation",
        "filter_levels",
        "filter_process",
        "forward_filter",
        "kl_divergence_bar",
        "next_token_prob",
        "path_probability",
        "sample_path",
    ),
    "predictor": ("PredictorRepresentation", "build_weights", "evaluate", "represent_conditional"),
    "dual": ("DualTrajectory", "duality_report", "estimator_path", "solve_bsde", "solve_optimal", "squared_error"),
    "fixedpoint": (
        "IterationTrace",
        "apply_N_adapted",
        "apply_N_path",
        "bde_solve",
        "fixed_point_residual",
        "iterate",
        "path_laws",
        "scalar_feedback",
        "step_law",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
