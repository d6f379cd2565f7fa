"""Federated query layer: coordinator, SQL-ish dialect, audit trail.

The highest-level API: register private databases in a :class:`Federation`
and ask statistics questions; ranking queries run the paper's probabilistic
protocol, additive aggregates run additive-masking secure sums, and every
execution is auditable.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "audit": ("AuditEntry", "AuditLog"),
    "cache": ("CacheKey", "CachedAnswer", "ResultCache", "canonical_statement"),
    "coordinator": (
        "Federation",
        "FederationError",
        "PlanInfeasible",
        "QueryOutcome",
        "QueryRefused",
    ),
    "sql": (
        "ADDITIVE_AGGREGATES",
        "FederatedStatement",
        "RANKING_AGGREGATES",
        "SqlError",
        "parse",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
