"""Cost- and privacy-aware query planning (ISSUE 8).

Turns declarative per-statement SLOs — ``... WITH SLO(epsilon=1e-4,
max_lop=0.3, deadline=0.05)`` — into concrete protocol / parameter
choices, using the paper's own analysis (Equations 4–6) composed with
measured calibration constants.  See ``docs/PLANNER.md``.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "accuracy": ("PredictionLedger",),
    "cost": (
        "Calibration",
        "CostEstimate",
        "CostModel",
        "NAIVE",
        "PROBABILISTIC",
        "SECURE_SUM",
    ),
    "errors": ("PlanInfeasible",),
    "plan": ("ECONOMY", "MODES", "Plan", "QUALITY"),
    "planner": ("DEFAULT_EPSILON", "QueryPlanner"),
    "spec": (
        "Prepared",
        "QuerySpec",
        "Slo",
        "SloError",
        "parse_spec",
        "prepare",
        "prepared_clear",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
