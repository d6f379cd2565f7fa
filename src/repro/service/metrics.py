"""Service observability: counters, gauges and latency percentiles.

The serving layer's operational questions — is the queue backing up, how full
are the batches, what latency do clients see, how much load is being shed,
how often does the cache absorb a query — all answer from one
:class:`ServiceMetrics` record, whose snapshot is a plain dict (embeddable
in benchmark JSON, or one JSONL record of a time series).

Latencies use :class:`repro.experiments.telemetry.LatencyHistogram`, so under
the gateway's seeded simulated clock the p50/p95/p99 figures are bit-stable
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..experiments.telemetry import LatencyHistogram


@dataclass
class ServiceMetrics:
    """Counters for one :class:`~repro.service.gateway.QueryService`."""

    #: Batch capacity, for the occupancy ratio.
    batch_capacity: int = 1

    # -- admission ----------------------------------------------------------
    submitted: int = 0
    admitted: int = 0
    shed_overload: int = 0
    shed_rate_limited: int = 0
    shed_deadline: int = 0
    shed_cost: int = 0  # estimated cost over budget, economy replan failed
    downgraded: int = 0  # admitted after an economy replan under cost pressure
    plan_infeasible: int = 0  # batch-settled PlanInfeasible (typed refusal)

    # -- completion ---------------------------------------------------------
    completed: int = 0
    refused: int = 0  # per-query federation refusals (issuer rule/budget/parse)
    failed: int = 0  # batch-level execution failures
    cache_fast_hits: int = 0  # served at admission/dequeue without a slot

    # -- batching -----------------------------------------------------------
    batches: int = 0
    batched_queries: int = 0
    queue_high_water: int = 0

    latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    # -- derived ------------------------------------------------------------

    @property
    def shed(self) -> int:
        """Every request rejected by admission control or deadline expiry."""
        return (
            self.shed_overload
            + self.shed_rate_limited
            + self.shed_deadline
            + self.shed_cost
        )

    @property
    def shed_rate(self) -> float:
        """Fraction of submitted requests that were shed."""
        return self.shed / self.submitted if self.submitted else 0.0

    @property
    def batch_occupancy(self) -> float:
        """Mean fraction of batch capacity actually used."""
        if not self.batches:
            return 0.0
        return self.batched_queries / (self.batches * max(1, self.batch_capacity))

    def snapshot(self, *, queue_depth: int = 0) -> dict[str, object]:
        """One flat, JSON-serializable view of the service's state."""
        quantiles = self.latency.summary()
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "completed": self.completed,
            "refused": self.refused,
            "failed": self.failed,
            "cache_fast_hits": self.cache_fast_hits,
            "shed_overload": self.shed_overload,
            "shed_rate_limited": self.shed_rate_limited,
            "shed_deadline": self.shed_deadline,
            "shed_cost": self.shed_cost,
            "downgraded": self.downgraded,
            "plan_infeasible": self.plan_infeasible,
            "shed": self.shed,
            "shed_rate": round(self.shed_rate, 6),
            "batches": self.batches,
            "batched_queries": self.batched_queries,
            "batch_occupancy": round(self.batch_occupancy, 6),
            "queue_depth": queue_depth,
            "queue_high_water": self.queue_high_water,
            "latency_mean_s": round(quantiles["mean"], 9),
            "latency_p50_s": round(quantiles["p50"], 9),
            "latency_p95_s": round(quantiles["p95"], 9),
            "latency_p99_s": round(quantiles["p99"], 9),
            "latency_max_s": round(quantiles["max"], 9),
        }


__all__ = ["ServiceMetrics"]
