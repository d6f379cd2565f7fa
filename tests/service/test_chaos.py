"""Chaos: the service stays live while ring nodes crash mid-query.

Satellite requirement — drive the QueryService while a FailureInjector
crashes a node mid-ring: affected queries either complete correctly after
ring repair (Section 3.2 splice) or fail with a typed error; the service
never hangs and the queue drains.

Determinism notes: the NAIVE protocol pins the starter to the first sorted
node id ("acme" here), so crashing a *non*-starter exercises the repair path
and crashing "acme" exercises the unrecoverable path — no seed hunting.
"""

import asyncio

from repro.core.driver import RunConfig
from repro.network.failures import FailureInjector
from repro.service import QueryFailed, QueryService

from .conftest import MIXED_STATEMENTS, fresh_federation

TIMEOUT = 30.0  # generous wall-clock bound; a hang fails the test, fast


def chaos_federation(injector: FailureInjector, seed: int = 7):
    return fresh_federation(
        seed=seed, config=RunConfig(protocol="naive", failures=injector)
    )


def run_bounded(coroutine):
    """Run with a hard wall-clock bound so a service hang fails loudly."""

    async def bounded():
        return await asyncio.wait_for(coroutine, timeout=TIMEOUT)

    return asyncio.run(bounded())


class TestMidRingCrash:
    def test_queries_complete_correctly_after_ring_repair(self):
        # "delta" (a non-starter holding only the value 5, outside every
        # top-k) crashes after a few messages; the splice repair must let
        # every in-flight query finish with exact results.
        injector = FailureInjector()
        injector.schedule_crash("delta", after_messages=3)

        async def scenario():
            service = QueryService(chaos_federation(injector))
            async with service:
                outcomes = await service.submit_many(
                    [
                        "SELECT TOP 3 value FROM data",
                        "SELECT BOTTOM 2 value FROM data",
                    ]
                )
            return service, outcomes

        service, (top, bottom) = run_bounded(scenario())
        assert injector.is_crashed("delta")
        assert top.values == (9000.0, 7000.0, 6500.0)
        # delta's value 5 crashed out of the ring mid-protocol; the repaired
        # ring answers over the survivors.
        assert bottom.values == (3.0, 40.0)
        assert service.metrics_snapshot()["queue_depth"] == 0
        assert service.metrics.completed == 2

    def test_service_survives_crash_and_keeps_serving(self):
        injector = FailureInjector()
        injector.schedule_crash("delta", after_messages=5)

        async def scenario():
            service = QueryService(chaos_federation(injector), max_batch=2)
            async with service:
                first = await service.submit_many(MIXED_STATEMENTS)
                # A second wave after the crash: repeats hit the cache, the
                # rest run on the spliced ring.
                second = await service.submit_many(
                    MIXED_STATEMENTS + ["SELECT MIN(value) FROM data"]
                )
            return service, first, second

        service, first, second = run_bounded(scenario())
        for a, b in zip(first, second):
            assert a.values == b.values
            assert b.cached
        assert service.metrics_snapshot()["queue_depth"] == 0
        assert service.metrics.failed == 0
        assert service.metrics.completed == len(first) + len(second)

    def test_starter_crash_fails_typed_not_hung(self):
        # A crashed starter is unrecoverable by splicing; the whole batch
        # must fail with QueryFailed (typed, attributable: the gateway's
        # ``_fail`` path) and the service must stay open for later queries.
        injector = FailureInjector()
        injector.schedule_crash("acme", after_messages=3)

        async def scenario():
            service = QueryService(chaos_federation(injector))
            async with service:
                results = await service.submit_many(
                    ["SELECT TOP 3 value FROM data"], return_exceptions=True
                )
                # The ring heals once the operator recovers the node; the
                # service keeps serving without a restart.
                injector.recover("acme")
                healed = await service.submit("SELECT TOP 3 value FROM data")
            return service, results, healed

        service, (crashed,), healed = run_bounded(scenario())
        assert isinstance(crashed, QueryFailed)
        assert "starting node crashed" in str(crashed.__cause__)
        assert healed.values == (9000.0, 7000.0, 6500.0)
        assert service.metrics.failed == 1
        assert service.metrics_snapshot()["queue_depth"] == 0
