"""Predicted-vs-actual accounting: the cost model's audit trail.

Every plan the gateway executes gets recorded here against the measured
outcome.  :meth:`PredictionLedger.drift` is relative L1 error
(``sum |predicted - actual| / sum actual``) per metric — the quantity the
``planner-smoke`` CI job bounds — and :meth:`export` publishes the whole
ledger through a :class:`~repro.observability.metrics.MetricsRegistry` so
deployed planners are continuously auditable.

The LoP prediction is a *bound on the expectation* (Equation 6), not a
point estimate: a single run's measured average LoP is a finite-sample
estimate with real variance and may legitimately exceed it.  The ledger
therefore aggregates — mean measured LoP vs mean predicted bound across
all recorded runs — and :attr:`PredictionLedger.lop_bound_exceeded` flags
only an aggregate breach, the signal that would actually indict the model.

The audit is further scoped to single-extraction plans (``k == 1``: MAX,
MIN, TOP/BOTTOM 1).  Equation 6 bounds one data item's exposure, while the
Section 5.3 estimator scores each node's *peak* per-round exposure across
all k items it participates with — a maximum statistic the per-item
expectation does not dominate for k > 1 (measured: ~0.14 vs a 0.008 bound
at k=5, yet 0.005 vs the same bound at k=1).  Multi-value runs are still
recorded for the point metrics; their measured LoP is simply not a quantity
Eq. 6 claims to bound, so it never enters the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..federation.outcomes import QueryOutcome
    from .plan import Plan

#: Metrics with point predictions (drift is meaningful for these).
POINT_METRICS = ("rounds", "messages", "latency")

#: Slack on the aggregate Eq. 6 comparison (floating-point headroom).
LOP_TOLERANCE = 1e-9


@dataclass
class _Accumulator:
    predictions: int = 0
    predicted_sum: float = 0.0
    actual_sum: float = 0.0
    abs_error_sum: float = 0.0

    def record(self, predicted: float, actual: float) -> None:
        self.predictions += 1
        self.predicted_sum += predicted
        self.actual_sum += actual
        self.abs_error_sum += abs(predicted - actual)

    @property
    def drift(self) -> float:
        """Relative L1 error; 0.0 before any prediction lands."""
        if self.actual_sum <= 0.0:
            return 0.0 if self.abs_error_sum == 0.0 else float("inf")
        return self.abs_error_sum / self.actual_sum


@dataclass
class PredictionLedger:
    """Accumulated predicted-vs-actual error across executed plans."""

    _metrics: dict[str, _Accumulator] = field(
        default_factory=lambda: {name: _Accumulator() for name in POINT_METRICS}
    )
    #: Plans recorded (cache hits are not recorded — nothing ran).
    recorded: int = 0
    #: Measured-LoP observations compared against the Eq. 6 bound
    #: (single-extraction runs only; see the module docstring).
    lop_checked: int = 0
    #: Sum of measured average LoP across checked runs.
    lop_measured_sum: float = 0.0
    #: Sum of the predicted expected-LoP bounds across checked runs.
    lop_bound_sum: float = 0.0

    def record(
        self,
        plan: "Plan",
        *,
        rounds: int,
        messages: int,
        simulated_seconds: float,
        measured_lop: float | None = None,
    ) -> None:
        """Record one executed plan against its measured outcome."""
        est = plan.estimate
        self._metrics["rounds"].record(float(est.rounds), float(rounds))
        self._metrics["messages"].record(float(est.messages), float(messages))
        self._metrics["latency"].record(
            est.simulated_seconds, simulated_seconds
        )
        self.recorded += 1
        if measured_lop is not None and est.extracted_values == 1:
            self.lop_checked += 1
            self.lop_measured_sum += measured_lop
            self.lop_bound_sum += est.expected_lop

    def record_outcome(self, plan: "Plan", outcome: "QueryOutcome") -> bool:
        """Record ``plan`` against the outcome it produced; False if nothing ran.

        Cache hits are skipped (nothing ran, nothing to audit); measured
        LoP is the outcome's ``average_lop``, set when a ring ran for it.
        """
        if outcome.cached:
            return False
        self.record(
            plan,
            rounds=outcome.rounds,
            messages=outcome.messages,
            simulated_seconds=outcome.simulated_seconds,
            measured_lop=outcome.average_lop,
        )
        return True

    def drift(self, metric: str) -> float:
        """Relative L1 error for one of :data:`POINT_METRICS`."""
        return self._metrics[metric].drift

    @property
    def lop_mean_measured(self) -> float:
        return self.lop_measured_sum / self.lop_checked if self.lop_checked else 0.0

    @property
    def lop_mean_bound(self) -> float:
        return self.lop_bound_sum / self.lop_checked if self.lop_checked else 0.0

    @property
    def lop_bound_exceeded(self) -> bool:
        """True when the aggregate mean measured LoP breaches the mean bound."""
        return self.lop_measured_sum > self.lop_bound_sum + LOP_TOLERANCE * max(
            1, self.lop_checked
        )

    def snapshot(self) -> dict[str, Any]:
        """A flat, JSON-serializable view of the ledger."""
        out: dict[str, Any] = {
            "recorded": self.recorded,
            "lop_checked": self.lop_checked,
            "lop_mean_measured": self.lop_mean_measured,
            "lop_mean_bound": self.lop_mean_bound,
            "lop_bound_exceeded": self.lop_bound_exceeded,
        }
        for name, acc in self._metrics.items():
            out[f"{name}_predicted"] = acc.predicted_sum
            out[f"{name}_actual"] = acc.actual_sum
            out[f"{name}_drift"] = acc.drift
        return out

    def export(self, registry: Any) -> None:
        """Publish the ledger through a MetricsRegistry (duck-typed).

        Running totals are published, not added, so repeated exports to the
        same registry stay truthful.
        """
        registry.counter(
            "repro_planner_predictions_total",
            "Executed plans recorded against measured outcomes",
        ).set_total(self.recorded)
        drift = registry.gauge(
            "repro_planner_drift",
            "Relative L1 error of planner predictions vs measured outcomes",
            label_names=("metric",),
        )
        for name, acc in self._metrics.items():
            drift.set(acc.drift, labels={"metric": name})
        lop = registry.gauge(
            "repro_planner_lop",
            "Mean measured average LoP vs the mean predicted Eq. 6 bound",
            label_names=("kind",),
        )
        lop.set(self.lop_mean_measured, labels={"kind": "measured_mean"})
        lop.set(self.lop_mean_bound, labels={"kind": "bound_mean"})
        registry.gauge(
            "repro_planner_lop_bound_exceeded",
            "1 when the aggregate measured LoP breaches the predicted bound",
        ).set(1.0 if self.lop_bound_exceeded else 0.0)


__all__ = ["LOP_TOLERANCE", "POINT_METRICS", "PredictionLedger"]
