"""Central metrics registry: counters and gauges.

The repository accumulated three disjoint accounting fragments as it grew:
``TrafficStats`` (per-channel message/byte counts on the network layer),
``LatencyHistogram`` (exact-sample latency percentiles in the experiment
harness and service), and ``PhaseProfiler`` (kernel phase timings).  Each
speaks its own dialect.  :class:`MetricsRegistry` unifies them behind one
label-aware interface with two exports: Prometheus text exposition (for
scraping, or for eyeballs) and a JSON document (for artifacts and tests).

The registry does not replace the fragments — they stay cheap and local to
their layers — it *absorbs* them: the ``absorb_*`` adapters read the public
attributes of each fragment and publish them under canonical metric names
(``repro_network_*``, ``repro_kernel_phase_*``, ``repro_service_*`` — the
service's latency histogram among them).  Adapters are duck-typed readers,
so this module imports nothing from the rest of ``repro`` and sits at the
bottom of the dependency graph.

Determinism: exports sort families, labels, and label values, so the same
measurements always render the same bytes — the same property the tracing
side guarantees, and what lets CI diff snapshots.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
]

Labels = tuple[tuple[str, str], ...]

#: ``repro_service_latency_seconds``'s quantile labels and the snapshot keys
#: (``LatencyHistogram.percentile`` values) each one publishes.
SERVICE_LATENCY_QUANTILES = (
    ("0.5", "latency_p50_s"),
    ("0.95", "latency_p95_s"),
    ("0.99", "latency_p99_s"),
)


def _labelset(
    label_names: Sequence[str], labels: Mapping[str, str] | None
) -> Labels:
    given = dict(labels or {})
    if set(given) != set(label_names):
        raise ValueError(
            f"expected labels {sorted(label_names)}, got {sorted(given)}"
        )
    return tuple((name, str(given[name])) for name in sorted(label_names))


def _render_labels(labels: Labels) -> str:
    parts = [f'{name}="{value}"' for name, value in labels]
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _Family:
    """Shared plumbing: a named metric with a fixed label schema."""

    type_name = "untyped"

    def __init__(
        self, name: str, help_text: str, label_names: Sequence[str]
    ) -> None:
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self._series: dict[Labels, Any] = {}

    def _sorted_series(self) -> list[tuple[Labels, Any]]:
        return sorted(self._series.items())


class Counter(_Family):
    """Monotonically increasing count (messages delivered, queries shed)."""

    type_name = "counter"

    def inc(
        self, amount: float = 1.0, *, labels: Mapping[str, str] | None = None
    ) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        key = _labelset(self.label_names, labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def set_total(
        self, total: float, *, labels: Mapping[str, str] | None = None
    ) -> None:
        """Publish a holder's running total: exporting twice changes nothing.

        A total below the published value is refused like a negative ``inc``.
        """
        self.inc(total - self.value(labels=labels), labels=labels)

    def value(self, *, labels: Mapping[str, str] | None = None) -> float:
        return float(self._series.get(_labelset(self.label_names, labels), 0.0))

    def prometheus_lines(self) -> list[str]:
        return [
            f"{self.name}{_render_labels(labels)} {_format_value(value)}"
            for labels, value in self._sorted_series()
        ]

    def to_json(self) -> list[dict[str, Any]]:
        return [
            {"labels": dict(labels), "value": value}
            for labels, value in self._sorted_series()
        ]


class Gauge(_Family):
    """A value that goes up and down (queue depth, inflight batches)."""

    type_name = "gauge"

    def set(
        self, value: float, *, labels: Mapping[str, str] | None = None
    ) -> None:
        self._series[_labelset(self.label_names, labels)] = float(value)

    prometheus_lines = Counter.prometheus_lines
    to_json = Counter.to_json


class MetricsRegistry:
    """Get-or-create registry of metric families, with unified exports."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def _register(self, cls, name, help_text, label_names):
        existing = self._families.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.type_name}, not {cls.type_name}"
                )
            if existing.label_names != tuple(label_names):
                raise ValueError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.label_names}, not {tuple(label_names)}"
                )
            return existing
        family = cls(name, help_text, label_names)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help_text: str = "", label_names: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help_text, label_names)

    def gauge(
        self, name: str, help_text: str = "", label_names: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help_text, label_names)

    @property
    def families(self) -> tuple[_Family, ...]:
        return tuple(self._families[name] for name in sorted(self._families))

    # -- exports -------------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format, fully sorted (stable bytes)."""
        lines: list[str] = []
        for family in self.families:
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.type_name}")
            lines.extend(family.prometheus_lines())
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> dict[str, Any]:
        return {
            "metrics": {
                family.name: {
                    "type": family.type_name,
                    "help": family.help,
                    "series": family.to_json(),
                }
                for family in self.families
            }
        }

    def write_prometheus(self, path: str | Path) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_prometheus())
        return target

    def write_json(self, path: str | Path) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")
        return target

    # -- adapters over the existing accounting fragments ---------------------
    # Duck-typed attribute readers: no imports from repro.*, so this module
    # stays at the bottom of the dependency graph.  An adapter that reads a
    # *holder* (a live object with running totals) publishes those totals --
    # ``Counter.set_total``, ``Gauge.set`` -- so exporting the same holder
    # again renders the same bytes; only ``absorb_traffic``, which adds one
    # finished result to the sum, increments.

    def absorb_traffic(
        self,
        stats: Any,
        *,
        rounds: int | None = None,
        labels: Mapping[str, str] | None = None,
    ) -> None:
        """Publish a ``TrafficStats``-shaped object (messages/bytes totals).

        ``rounds`` is separate because the stats object counts traffic, not
        protocol progress — pass ``result.rounds_executed`` when available.
        """
        label_names = tuple(sorted(labels or {}))
        self.counter(
            "repro_network_messages_total",
            "Messages delivered on the simulated transport.",
            label_names,
        ).inc(stats.messages_total, labels=labels)
        self.counter(
            "repro_network_bytes_total",
            "Encoded payload bytes moved across the ring.",
            label_names,
        ).inc(stats.bytes_total, labels=labels)
        if rounds is not None:
            self.gauge(
                "repro_protocol_rounds",
                "Ring rounds the protocol ran before converging.",
                label_names,
            ).set(rounds, labels=labels)

    def absorb_phases(self, profiler: Any) -> None:
        """Publish a ``PhaseProfiler``-shaped object (``._totals`` by phase)."""
        family = self.gauge(
            "repro_kernel_phase_seconds",
            "Kernel wall-clock by execution phase.",
            ("phase",),
        )
        for phase, seconds in profiler._totals.items():
            family.set(seconds, labels={"phase": phase})
        self.counter(
            "repro_kernel_runs_total", "Kernel executions profiled."
        ).set_total(profiler.runs)
        self.counter(
            "repro_kernel_rounds_total", "Ring rounds executed by the kernel."
        ).set_total(profiler.rounds)

    def absorb_service(
        self, metrics: Any, *, queue_depth: int | None = None
    ) -> None:
        """Publish a ``ServiceMetrics``-shaped snapshot plus live gauges.

        Once the service has served anything, its latency histogram goes out
        as ``repro_service_latency_seconds{quantile=...}``: the snapshot's
        p50 / p95 / p99, which ``LatencyHistogram.percentile`` computed.
        """
        snapshot = metrics.snapshot(queue_depth=queue_depth or 0)
        outcomes = (
            "submitted",
            "admitted",
            "completed",
            "refused",
            "failed",
            "cache_fast_hits",
            "shed_overload",
            "shed_rate_limited",
            "shed_deadline",
            "shed_cost",
            "downgraded",
            "plan_infeasible",
        )
        family = self.counter(
            "repro_service_queries_total",
            "Queries by admission/terminal outcome.",
            ("outcome",),
        )
        for outcome in outcomes:
            family.set_total(snapshot.get(outcome, 0), labels={"outcome": outcome})
        self.counter(
            "repro_service_batches_total", "Protocol batches dispatched."
        ).set_total(snapshot.get("batches", 0))
        self.gauge(
            "repro_service_batch_occupancy",
            "Mean fraction of batch capacity used.",
        ).set(snapshot.get("batch_occupancy", 0.0))
        self.gauge(
            "repro_service_queue_high_water", "Deepest queue seen."
        ).set(snapshot.get("queue_high_water", 0))
        if metrics.latency.count:
            latency = self.gauge(
                "repro_service_latency_seconds",
                "End-to-end simulated query latency, exact quantiles.",
                ("quantile",),
            )
            for quantile, key in SERVICE_LATENCY_QUANTILES:
                latency.set(snapshot[key], labels={"quantile": quantile})
        if queue_depth is not None:
            self.gauge(
                "repro_service_queue_depth", "Requests waiting for a batch."
            ).set(queue_depth)

    def absorb_dp(self, snapshot: "dict[str, Any]") -> None:
        """Publish a DP release gate's accountant snapshot.

        ``snapshot`` is ``DpGate.snapshot()``-shaped: spent/budget meters
        plus release/free-serve/refusal counters.
        """
        self.gauge(
            "repro_dp_epsilon_spent",
            "Composed epsilon charged across every fresh DP release.",
        ).set(float(snapshot.get("epsilon_spent", 0.0)))
        self.gauge(
            "repro_dp_delta_spent",
            "Composed delta charged across every fresh DP release.",
        ).set(float(snapshot.get("delta_spent", 0.0)))
        for dimension in ("epsilon", "delta"):
            budget = snapshot.get(f"{dimension}_budget")
            if budget is not None:
                self.gauge(
                    f"repro_dp_{dimension}_budget",
                    f"Configured {dimension} budget (absent when unmetered).",
                ).set(float(budget))
        events = self.counter(
            "repro_dp_releases_total",
            "DP release decisions by outcome.",
            ("outcome",),
        )
        for key, outcome in (
            ("releases", "released"),
            ("free_serves", "free-serve"),
            ("refusals", "refused"),
        ):
            events.set_total(int(snapshot.get(key, 0)), labels={"outcome": outcome})
        self.gauge(
            "repro_dp_release_keys",
            "Distinct release keys the gate has answered.",
        ).set(int(snapshot.get("release_keys", 0)))
