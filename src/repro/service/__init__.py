"""Query-serving layer: a production-shaped service above the federation.

``federation/`` answers queries; ``service/`` serves *traffic*.  The
:class:`QueryService` gateway accepts a continuous stream of statements,
coalesces them into the federation's pipelined batches (continuous
batching), serves repeats from the result cache without occupying batch
slots, enforces per-client rate limits and per-request deadlines, and sheds
load with typed errors — :class:`Overloaded`, :class:`RateLimited`,
:class:`DeadlineExceeded` — instead of queuing unboundedly.  Operational
state exports through :class:`ServiceMetrics` (queue depth, batch occupancy,
latency percentiles, shed rate, cache hit rate) as a dict.

Everything is deterministic under the seeded :class:`SimulatedClock`.
Entry points: ``python -m repro.cli serve`` (statements on stdin) and
``python -m repro.cli bench-serve`` (synthetic workload + metrics snapshot).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "clock": ("Clock", "SimulatedClock"),
    "errors": (
        "DeadlineExceeded",
        "Overloaded",
        "QueryFailed",
        "RateLimited",
        "ServiceClosed",
        "ServiceError",
    ),
    "gateway": ("QueryService",),
    "metrics": ("ServiceMetrics",),
    "scheduler": ("AdmissionQueue", "QueuedRequest", "TokenBucket"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
