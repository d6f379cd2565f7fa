"""Analytical models from Section 4: Equations 3 (correctness), 4 (efficiency),
5 and 6 (privacy bounds)."""

from .._lazy import lazy_exports

_EXPORTS = {
    "correctness": (
        "precision_bound_series",
        "precision_lower_bound",
        "rounds_to_reach",
    ),
    "efficiency": (
        "grouped_total_messages",
        "minimum_rounds",
        "rmin_series",
        "sqrt_log_scaling_constant",
        "total_messages",
    ),
    "optimization": (
        "OptimizationError",
        "ParameterChoice",
        "evaluate",
        "optimal_parameters",
        "pareto_frontier",
    ),
    "privacy_bounds": (
        "expected_lop_bound",
        "expected_lop_round_term",
        "expected_lop_series",
        "harmonic_number",
        "naive_average_lop",
        "naive_average_lop_bound",
        "naive_estimator_average",
        "naive_worst_case_lop",
        "peak_lop_round",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
