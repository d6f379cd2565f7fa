"""Unit tests for the central metrics registry."""

import pytest

from repro.observability import MetricsRegistry


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("m_total", "help")
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3

    def test_rejects_negative_increments(self):
        counter = MetricsRegistry().counter("m_total")
        with pytest.raises(ValueError, match="counters only go up"):
            counter.inc(-1)

    def test_labelled_series_are_independent(self):
        counter = MetricsRegistry().counter("m_total", label_names=("kind",))
        counter.inc(labels={"kind": "a"})
        counter.inc(5, labels={"kind": "b"})
        assert counter.value(labels={"kind": "a"}) == 1
        assert counter.value(labels={"kind": "b"}) == 5

    def test_label_schema_enforced(self):
        counter = MetricsRegistry().counter("m_total", label_names=("kind",))
        with pytest.raises(ValueError, match="expected labels"):
            counter.inc(labels={"wrong": "x"})
        with pytest.raises(ValueError, match="expected labels"):
            counter.inc()


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("m_total") is registry.counter("m_total")

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("m")

    def test_label_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m", label_names=("a",))
        with pytest.raises(ValueError, match="already registered with labels"):
            registry.counter("m", label_names=("b",))

    def test_prometheus_exposition_is_sorted_and_stable(self):
        def build() -> str:
            registry = MetricsRegistry()
            registry.gauge("z_gauge", "last").set(1)
            counter = registry.counter("a_total", "first", ("kind",))
            counter.inc(labels={"kind": "b"})
            counter.inc(labels={"kind": "a"})
            return registry.to_prometheus()

        text = build()
        assert text == build()  # byte-stable
        assert text.index("a_total") < text.index("z_gauge")
        assert text.index('kind="a"') < text.index('kind="b"')
        assert "# HELP a_total first" in text
        assert "# TYPE a_total counter" in text

    def test_json_export_mirrors_families(self):
        registry = MetricsRegistry()
        registry.counter("m_total", "help").inc(3)
        document = registry.to_json()
        assert document["metrics"]["m_total"]["type"] == "counter"
        assert document["metrics"]["m_total"]["series"] == [
            {"labels": {}, "value": 3.0}
        ]

    def test_write_helpers(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("m_total").inc()
        prom = registry.write_prometheus(tmp_path / "out" / "m.prom")
        blob = registry.write_json(tmp_path / "out" / "m.json")
        assert "m_total 1" in prom.read_text()
        assert '"m_total"' in blob.read_text()


class TestAdapters:
    def test_absorb_traffic_reads_traffic_stats(self):
        from repro.network.message import token_message
        from repro.network.stats import TrafficStats

        stats = TrafficStats()
        stats.record(token_message("a", "b", 1, [1.0, 2.0]))
        stats.record(token_message("b", "c", 1, [1.0, 2.0]))
        registry = MetricsRegistry()
        registry.absorb_traffic(stats, rounds=5, labels={"protocol": "naive"})
        text = registry.to_prometheus()
        assert 'repro_network_messages_total{protocol="naive"} 2' in text
        assert 'repro_protocol_rounds{protocol="naive"} 5' in text
        assert "repro_network_bytes_total" in text

    def test_absorb_phases_reads_profiler(self):
        class FakeProfiler:
            _totals = {"setup": 0.25, "round_loop": 1.5}
            runs = 4
            rounds = 20

        registry = MetricsRegistry()
        registry.absorb_phases(FakeProfiler())
        text = registry.to_prometheus()
        assert 'repro_kernel_phase_seconds{phase="round_loop"} 1.5' in text
        assert "repro_kernel_runs_total 4" in text
        assert "repro_kernel_rounds_total 20" in text

    def test_absorb_service_reads_service_metrics(self):
        from repro.service.metrics import ServiceMetrics

        metrics = ServiceMetrics()
        metrics.submitted = 5
        metrics.admitted = 4
        metrics.completed = 4
        registry = MetricsRegistry()
        registry.absorb_service(metrics, queue_depth=2)
        text = registry.to_prometheus()
        assert 'repro_service_queries_total{outcome="submitted"} 5' in text
        assert 'repro_service_queries_total{outcome="completed"} 4' in text
        assert "repro_service_queue_depth 2" in text
        # No latency recorded, so no quantiles to publish.
        assert "repro_service_latency_seconds" not in text

    def test_served_latency_quantiles_equal_the_snapshot(self):
        """A real gateway's p50/p95/p99 reach the exposition unchanged.

        ``absorb_service`` used to read ``latency.samples``, an attribute the
        service's ``LatencyHistogram`` does not have, so the family was
        never exported; a stand-in holder with ``samples`` hid that.
        """
        import asyncio

        from repro.service import QueryService
        from repro.service.workload import mixed_workload, synthetic_federation

        async def serve() -> QueryService:
            async with QueryService(synthetic_federation(seed=3)) as service:
                await service.submit_many(mixed_workload(24, seed=3))
            return service

        service = asyncio.run(serve())
        snapshot = service.metrics_snapshot()
        published = {}
        for line in service.export_metrics().to_prometheus().splitlines():
            if line.startswith("repro_service_latency_seconds{"):
                labels, value = line.split(" ")
                published[labels.split('"')[1]] = float(value)
        assert published == {
            "0.5": snapshot["latency_p50_s"],
            "0.95": snapshot["latency_p95_s"],
            "0.99": snapshot["latency_p99_s"],
        }
        assert snapshot["latency_p50_s"] > 0


class TestExportIsIdempotent:
    """Exporting a live service twice renders what exporting it once does.

    Every adapter that reads a holder publishes its running total; they used
    to ``Counter.inc`` it, so a second ``export_metrics(registry)`` doubled
    every service, cache, shard and DP counter.
    """

    @staticmethod
    def _serve_then_export(federation, table: str, exports: int) -> str:
        import asyncio

        from repro.service import QueryService

        statements = [
            f"SELECT TOP 2 value FROM {table} WITH SLO(max_lop=0.9)",
            f"SELECT MAX(value) FROM {table} WITH SLO(dp_epsilon=1.0)",
            f"SELECT MAX(value) FROM {table} WITH SLO(dp_epsilon=1.0)",
            f"SELECT TOP 2 value FROM {table} WITH SLO(max_lop=0.9)",
        ]

        async def scenario():
            registry = MetricsRegistry()
            async with QueryService(federation) as service:
                for statement in statements:
                    await service.submit(statement, issuer="t1")
                for _ in range(exports):
                    service.export_metrics(registry)
            return registry.to_prometheus()

        return asyncio.run(scenario())

    @pytest.mark.parametrize("topology", ["flat", "sharded"])
    def test_second_export_changes_no_byte(self, topology):
        from repro.privacy.dp import DpPolicy
        from repro.service.workload import synthetic_federation
        from repro.sharding import TenantPolicy, build_topology, sharded_federation

        def build():
            if topology == "flat":
                return synthetic_federation(dp=DpPolicy(seed=1)), "data"
            layout = build_topology(shards=3, seed=7)
            federation = sharded_federation(layout, dp=DpPolicy(seed=1))
            federation.set_tenant("t1", TenantPolicy(lop_budget=5.0))
            return federation, layout.tables[0]

        once = self._serve_then_export(*build(), exports=1)
        twice = self._serve_then_export(*build(), exports=2)
        assert 'repro_service_queries_total{outcome="completed"} 4' in once
        assert 'repro_dp_releases_total{outcome="released"} 1' in once
        assert twice == once

    def test_a_total_cannot_move_down(self):
        counter = MetricsRegistry().counter("events_total", "Events.")
        counter.set_total(3)
        counter.set_total(3)
        assert counter.value() == 3.0
        with pytest.raises(ValueError):
            counter.set_total(2)
