"""Unified observability: distributed tracing + central metrics registry.

See :mod:`repro.observability.trace` for the span model and exporters,
:mod:`repro.observability.metrics` for the registry that unifies
``TrafficStats`` / ``LatencyHistogram`` / ``PhaseProfiler``, and
``docs/OBSERVABILITY.md`` for the span taxonomy and how a trace maps to
the paper's IR/LoP exposure accounting.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "metrics": ("Counter", "Gauge", "MetricsRegistry"),
    "runtime": ("current_tracer", "tracing"),
    "trace": (
        "NULL_CONTEXT",
        "NULL_TRACER",
        "Span",
        "TraceContext",
        "TraceRecorder",
        "Tracer",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
