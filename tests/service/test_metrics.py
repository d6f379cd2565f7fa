"""Latency histogram percentiles and the service metrics export."""

import asyncio
import json

import pytest

from repro.experiments.telemetry import LatencyHistogram
from repro.service import QueryService, ServiceMetrics

from .conftest import MIXED_STATEMENTS, fresh_federation


class TestLatencyHistogram:
    def test_empty_histogram_summarizes_to_zeros(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        summary = histogram.summary()
        assert summary == {
            "count": 0,
            "mean": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
            "max": 0.0,
        }

    def test_percentiles_interpolate_over_samples(self):
        histogram = LatencyHistogram()
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.record(value)
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 4.0
        assert histogram.percentile(50) == pytest.approx(2.5)
        assert histogram.mean == pytest.approx(2.5)
        assert histogram.max == 4.0

    def test_percentiles_are_order_independent(self):
        ascending, shuffled = LatencyHistogram(), LatencyHistogram()
        values = [0.5, 0.1, 0.9, 0.3, 0.7]
        for v in sorted(values):
            ascending.record(v)
        for v in values:
            shuffled.record(v)
        for p in (50, 95, 99):
            assert ascending.percentile(p) == shuffled.percentile(p)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-0.1)

    def test_out_of_range_percentile_rejected(self):
        histogram = LatencyHistogram()
        histogram.record(1.0)
        with pytest.raises(ValueError):
            histogram.percentile(101)


class TestServiceMetrics:
    def test_derived_rates(self):
        metrics = ServiceMetrics(batch_capacity=4)
        metrics.submitted = 10
        metrics.shed_overload = 2
        metrics.shed_deadline = 1
        metrics.batches = 2
        metrics.batched_queries = 6
        assert metrics.shed == 3
        assert metrics.shed_rate == pytest.approx(0.3)
        assert metrics.batch_occupancy == pytest.approx(6 / 8)

    def test_snapshot_is_flat_and_json_serializable(self):
        metrics = ServiceMetrics()
        metrics.latency.record(0.25)
        snapshot = metrics.snapshot(queue_depth=3)
        assert snapshot["queue_depth"] == 3
        assert snapshot["latency_p99_s"] == pytest.approx(0.25)
        round_tripped = json.loads(json.dumps(snapshot))
        assert round_tripped == snapshot

class TestServiceSnapshot:
    def test_snapshot_accounts_for_every_submission(self):
        async def scenario():
            service = QueryService(fresh_federation(), max_batch=4)
            async with service:
                await service.submit_many(MIXED_STATEMENTS)
                await service.submit_many(MIXED_STATEMENTS)  # repeat wave
            return service.metrics_snapshot()

        snapshot = asyncio.run(scenario())
        assert snapshot["submitted"] == 10
        assert snapshot["completed"] == 10
        assert snapshot["cache_fast_hits"] == 5
        assert snapshot["shed"] == 0
        assert snapshot["queue_depth"] == 0
        # Federation-cache statistics ride along for hit-rate dashboards.
        assert snapshot["cache_hits"] == 5
        assert snapshot["cache_hit_rate"] == pytest.approx(0.5)
        assert snapshot["latency_p99_s"] > 0.0
