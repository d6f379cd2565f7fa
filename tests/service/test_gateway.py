"""Gateway lifecycle, continuous batching and the cache fast path.

Async tests drive the service with ``asyncio.run`` directly; the default
:class:`~repro.service.clock.SimulatedClock` makes every run — results,
latencies, metric counters — deterministic.
"""

import asyncio
import gc
import sys
import tracemalloc

import pytest

from repro.federation import QueryOutcome
from repro.service import QueryService, ServiceClosed, SimulatedClock

from .conftest import MIXED_STATEMENTS, fresh_federation


class TestLifecycle:
    def test_submit_returns_the_query_outcome(self):
        async def scenario():
            async with QueryService(fresh_federation()) as service:
                return await service.submit("SELECT TOP 3 value FROM data")

        outcome = asyncio.run(scenario())
        assert isinstance(outcome, QueryOutcome)
        assert outcome.values == (9000.0, 7000.0, 6500.0)
        assert not outcome.cached

    def test_closed_service_refuses_new_queries(self):
        async def scenario():
            service = QueryService(fresh_federation())
            async with service:
                await service.submit("SELECT MAX(value) FROM data")
            assert service.closed
            with pytest.raises(ServiceClosed):
                await service.submit("SELECT MAX(value) FROM data")

        asyncio.run(scenario())

    def test_close_is_idempotent(self):
        async def scenario():
            service = QueryService(fresh_federation())
            await service.start()
            await service.close()
            await service.close()

        asyncio.run(scenario())

    def test_graceful_drain_serves_queued_work(self):
        # Submissions race service exit: __aexit__ must drain, not drop.
        async def scenario():
            service = QueryService(fresh_federation())
            async with service:
                tasks = [
                    asyncio.ensure_future(service.submit(s))
                    for s in MIXED_STATEMENTS
                ]
                await asyncio.sleep(0)  # submissions admitted, none served yet
            # close(drain=True) ran inside __aexit__; every future resolved.
            return await asyncio.gather(*tasks)

        outcomes = asyncio.run(scenario())
        assert len(outcomes) == len(MIXED_STATEMENTS)
        assert all(isinstance(o, QueryOutcome) for o in outcomes)

    def test_non_drain_close_fails_queued_requests(self):
        async def scenario():
            service = QueryService(fresh_federation())
            task = asyncio.ensure_future(
                service.submit("SELECT TOP 3 value FROM data")
            )
            await asyncio.sleep(0)  # let submit enqueue; scheduler not yet run
            assert service.metrics_snapshot()["queue_depth"] == 1
            await service.close(drain=False)
            with pytest.raises(ServiceClosed):
                await task

        asyncio.run(scenario())


class TestContinuousBatching:
    def test_concurrent_submissions_coalesce_into_one_batch(self):
        async def scenario():
            service = QueryService(fresh_federation(), max_batch=8)
            async with service:
                outcomes = await service.submit_many(MIXED_STATEMENTS)
            return service, outcomes

        service, outcomes = asyncio.run(scenario())
        assert [o.values[0] for o in outcomes[:1]] == [9000.0]
        assert service.metrics.batches == 1
        assert service.metrics.batched_queries == len(MIXED_STATEMENTS)
        assert service.metrics.batch_occupancy == pytest.approx(
            len(MIXED_STATEMENTS) / 8
        )

    def test_batch_capacity_splits_overflow_across_cycles(self):
        async def scenario():
            service = QueryService(fresh_federation(), max_batch=2)
            async with service:
                await service.submit_many(MIXED_STATEMENTS)
            return service

        service = asyncio.run(scenario())
        assert service.metrics.batches == 3  # 2 + 2 + 1
        assert service.metrics.completed == len(MIXED_STATEMENTS)

    def test_different_issuers_never_share_a_batch(self):
        # execute_many_settled charges policy/quota per issuer, so a batch must be
        # issuer-homogeneous; two issuers' bursts become two batches.
        async def scenario():
            service = QueryService(fresh_federation(), max_batch=8)
            async with service:
                await asyncio.gather(
                    service.submit("SELECT TOP 3 value FROM data", issuer="alice"),
                    service.submit("SELECT MAX(value) FROM data", issuer="alice"),
                    service.submit("SELECT SUM(value) FROM data", issuer="bob"),
                )
            return service

        service = asyncio.run(scenario())
        assert service.metrics.batches == 2
        issuers = [entry.issuer for entry in service.federation.audit]
        assert set(issuers) == {"alice", "bob"}


class TestCacheFastPath:
    def test_repeats_are_served_without_batch_slots(self):
        async def scenario():
            service = QueryService(fresh_federation(), max_batch=8)
            async with service:
                first = await service.submit_many(MIXED_STATEMENTS)
                second = await service.submit_many(MIXED_STATEMENTS)
            return service, first, second

        service, first, second = asyncio.run(scenario())
        for a, b in zip(first, second):
            assert a.values == b.values
            assert b.cached
        # The repeat wave never reached a batch: answered at admission.
        assert service.metrics.batches == 1
        assert service.metrics.cache_fast_hits == len(MIXED_STATEMENTS)

    def test_queued_duplicate_served_by_dequeue_sweep(self):
        # With max_batch=1 the duplicate is still queued when the first
        # execution completes; the dequeue-time sweep must serve it from the
        # cache instead of spending a second protocol run.
        async def scenario():
            service = QueryService(fresh_federation(), max_batch=1)
            async with service:
                outcomes = await service.submit_many(
                    ["SELECT TOP 3 value FROM data"] * 3
                )
            return service, outcomes

        service, outcomes = asyncio.run(scenario())
        assert service.metrics.batches == 1
        assert outcomes[0].values == outcomes[1].values == outcomes[2].values
        assert outcomes[1].cached and outcomes[2].cached
        assert service.metrics.cache_fast_hits == 2

    def test_cache_hits_record_zero_latency(self):
        async def scenario():
            service = QueryService(fresh_federation())
            async with service:
                await service.submit("SELECT TOP 3 value FROM data")
                await service.submit("SELECT TOP 3 value FROM data")
            return service

        service = asyncio.run(scenario())
        assert service.metrics.latency.count == 2
        # The executed query took simulated protocol time; the hit took none.
        assert service.metrics.latency.percentile(0) == 0.0
        assert service.metrics.latency.max > 0.0

    @pytest.mark.parametrize("keep", [False, True], ids=["dropped", "kept"])
    def test_a_repeat_hit_retains_its_audit_entry_and_nothing_else(self, keep):
        # What a hit leaves behind is the evidence it records: an entry_id
        # and a row index in the audit log's columns (the row itself is
        # interned) and the service's latency sample slot, no object.
        # Blocks count the same on every CPython CI runs; bytes bound the
        # slots.  A caller keeping its outcomes keeps one shared object, in
        # a list it allocated beforehand.
        hits, statement = 20_000, "SELECT TOP 3 value FROM data"

        async def scenario():
            federation, kept = fresh_federation(), [None] * hits
            async with QueryService(federation) as service:
                for _ in range(2):  # the execution, then the first hit
                    await service.submit(statement, issuer="alice")
                logged = len(federation.audit)
                gc.collect()
                gc.disable()
                try:
                    blocks = sys.getallocatedblocks()
                    nbytes = tracemalloc.get_traced_memory()[0]
                    for i in range(hits):
                        outcome = await service.submit(statement, issuer="alice")
                        if keep:
                            kept[i] = outcome
                    blocks = sys.getallocatedblocks() - blocks
                    nbytes = tracemalloc.get_traced_memory()[0] - nbytes
                finally:
                    gc.enable()
            return federation.audit[logged:], blocks, nbytes

        # Traced from the start: a column that grows by realloc is then
        # counted by its growth, not as one new block of its full size.
        tracemalloc.start()
        try:
            entries, blocks, nbytes = asyncio.run(scenario())
        finally:
            tracemalloc.stop()
        assert blocks / hits <= 0.05, f"{blocks / hits:.3f} blocks per hit"
        assert nbytes / hits <= 32, f"{nbytes / hits:.1f} B per hit"
        assert len(entries) == hits
        assert all(e.cached and e.issuer == "alice" for e in entries)
        assert all(a.entry_id < b.entry_id for a, b in zip(entries, entries[1:]))


class TestSimulatedTime:
    def test_clock_advances_by_batch_makespan(self):
        async def scenario():
            clock = SimulatedClock()
            service = QueryService(fresh_federation(), clock=clock)
            async with service:
                outcomes = await service.submit_many(MIXED_STATEMENTS)
            return clock, outcomes

        clock, outcomes = asyncio.run(scenario())
        makespan = max(o.simulated_seconds for o in outcomes)
        assert makespan > 0.0
        assert clock.now() == pytest.approx(makespan)

    def test_same_shape_burst_costs_one_query_not_q(self):
        # The cost model's batching identity, pinned exactly (the retired
        # throughput benches floored it as ">= 2x"): Q same-shape ranking
        # misses pipelined in one batch advance the clock by ONE query's
        # seconds; served one per batch they advance it by Q of them.
        burst = [f"SELECT TOP {k} value FROM data" for k in (1, 2, 3, 4)] + [
            f"SELECT BOTTOM {k} value FROM data" for k in (1, 2, 3, 4)
        ]

        def clock_after(max_batch: int):
            async def scenario():
                service = QueryService(fresh_federation(), max_batch=max_batch)
                async with service:
                    outcomes = await service.submit_many(burst)
                return service, outcomes

            service, outcomes = asyncio.run(scenario())
            return service.clock.now(), service.metrics.batches, outcomes

        batched, batches, outcomes = clock_after(len(burst))
        one_query = outcomes[0].simulated_seconds
        assert one_query > 0.0
        assert {o.simulated_seconds for o in outcomes} == {one_query}
        assert (batches, batched) == (1, one_query)
        one_at_a_time, batches, again = clock_after(1)
        assert batches == len(burst)
        assert [o.values for o in again] == [o.values for o in outcomes]
        assert one_at_a_time == pytest.approx(len(burst) * one_query, rel=1e-12)

    def test_identical_runs_reproduce_bit_identically(self):
        async def scenario():
            service = QueryService(fresh_federation(seed=123))
            async with service:
                outcomes = await service.submit_many(MIXED_STATEMENTS * 2)
            snapshot = service.metrics_snapshot()
            return [o.values for o in outcomes], snapshot

        values_a, snap_a = asyncio.run(scenario())
        values_b, snap_b = asyncio.run(scenario())
        assert values_a == values_b
        assert snap_a == snap_b
