"""Admission control: bounded queue, rate limits, deadlines, priorities.

Covers both the pure data structures (:class:`AdmissionQueue`,
:class:`TokenBucket` — no event loop required) and the typed load-shedding
behavior of the full service under deliberate overload.
"""

import asyncio

import pytest

from repro.service import (
    AdmissionQueue,
    DeadlineExceeded,
    Overloaded,
    QueryService,
    QueuedRequest,
    RateLimited,
    TokenBucket,
)

from .conftest import fresh_federation, serve_every_way_out


def request(seq, *, issuer="anonymous", priority=0, deadline=None):
    return QueuedRequest(
        statement=f"SELECT TOP {seq + 1} value FROM data",
        issuer=issuer,
        priority=priority,
        deadline=deadline,
        admitted_at=0.0,
        seq=seq,
        future=None,  # structure-only tests never resolve it
    )


class TestAdmissionQueue:
    def test_push_beyond_capacity_raises_overloaded(self):
        queue = AdmissionQueue(max_depth=2)
        queue.push(request(0))
        queue.push(request(1))
        with pytest.raises(Overloaded) as excinfo:
            queue.push(request(2))
        assert excinfo.value.queue_depth == 2
        assert excinfo.value.limit == 2
        assert queue.depth == 2

    def test_expire_removes_only_past_deadline(self):
        queue = AdmissionQueue(max_depth=8)
        queue.push(request(0, deadline=1.0))
        queue.push(request(1, deadline=5.0))
        queue.push(request(2))  # no deadline: waits forever
        expired = queue.expire(now=2.0)
        assert [r.seq for r in expired] == [0]
        assert queue.depth == 2

    def test_next_batch_orders_by_priority_then_fifo(self):
        queue = AdmissionQueue(max_depth=8)
        queue.push(request(0, priority=0))
        queue.push(request(1, priority=5))
        queue.push(request(2, priority=5))
        batch = queue.next_batch(max_batch=8)
        assert [r.seq for r in batch] == [1, 2, 0]

    def test_next_batch_is_issuer_homogeneous(self):
        queue = AdmissionQueue(max_depth=8)
        queue.push(request(0, issuer="alice"))
        queue.push(request(1, issuer="bob"))
        queue.push(request(2, issuer="alice"))
        batch = queue.next_batch(max_batch=8)
        assert [r.seq for r in batch] == [0, 2]
        assert [r.seq for r in queue.snapshot()] == [1]

    def test_remove_targets_one_request(self):
        queue = AdmissionQueue(max_depth=8)
        first, second = request(0), request(1)
        queue.push(first)
        queue.push(second)
        assert queue.remove(first)
        assert not queue.remove(first)  # already gone
        assert [r.seq for r in queue.snapshot()] == [1]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionQueue(max_depth=0)


class TestTokenBucket:
    def test_burst_then_refusal(self):
        bucket = TokenBucket(rate=1.0, burst=2.0, updated=0.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)

    def test_tokens_refill_with_time(self):
        bucket = TokenBucket(rate=2.0, burst=1.0, updated=0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.1)
        assert bucket.try_take(1.0)  # 0.9s * 2/s > 1 token

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestLoadShedding:
    def test_full_queue_sheds_with_overloaded(self):
        async def scenario():
            service = QueryService(fresh_federation(), max_queue=1)
            async with service:
                results = await service.submit_many(
                    [
                        "SELECT TOP 3 value FROM data",
                        "SELECT SUM(value) FROM data",
                        "SELECT MAX(value) FROM data",
                    ],
                    return_exceptions=True,
                )
            return service, results

        service, results = asyncio.run(scenario())
        assert not isinstance(results[0], Exception)
        assert isinstance(results[1], Overloaded)
        assert isinstance(results[2], Overloaded)
        assert service.metrics.shed_overload == 2
        assert service.metrics.shed_rate == pytest.approx(2 / 3)

    def test_rate_limit_sheds_with_rate_limited(self):
        async def scenario():
            service = QueryService(
                fresh_federation(), rate_limit=1.0, rate_burst=1
            )
            async with service:
                await service.submit("SELECT TOP 3 value FROM data")
                with pytest.raises(RateLimited):
                    await service.submit("SELECT SUM(value) FROM data")
                # A different issuer has its own bucket.
                await service.submit(
                    "SELECT MAX(value) FROM data", issuer="other"
                )
            return service

        service = asyncio.run(scenario())
        assert service.metrics.shed_rate_limited == 1
        assert service.metrics.completed == 2

    def test_rate_limited_is_an_overload_signal(self):
        assert issubclass(RateLimited, Overloaded)

    def test_nonpositive_timeout_sheds_immediately(self):
        async def scenario():
            service = QueryService(fresh_federation())
            async with service:
                with pytest.raises(DeadlineExceeded):
                    await service.submit(
                        "SELECT TOP 3 value FROM data", timeout=0.0
                    )
            return service

        service = asyncio.run(scenario())
        assert service.metrics.shed_deadline == 1

    def test_queued_past_deadline_is_shed_not_served(self):
        # max_batch=1: the first query's simulated protocol time advances the
        # clock past the second query's tiny deadline while it is still
        # queued, so the scheduler sheds it at the next cycle.
        async def scenario():
            service = QueryService(fresh_federation(), max_batch=1)
            async with service:
                results = await service.submit_many(
                    [
                        "SELECT TOP 3 value FROM data",
                        "SELECT BOTTOM 2 value FROM data",
                    ],
                    timeout=1e-6,
                    return_exceptions=True,
                )
            return service, results

        service, results = asyncio.run(scenario())
        assert not isinstance(results[0], Exception)  # dispatched first
        assert isinstance(results[1], DeadlineExceeded)
        assert service.metrics.shed_deadline == 1
        assert service.metrics.batches == 1  # the shed query never executed

    def test_queue_never_exceeds_its_bound(self):
        async def scenario():
            service = QueryService(fresh_federation(), max_queue=2, max_batch=1)
            async with service:
                statements = [
                    f"SELECT TOP {k} value FROM data" for k in range(1, 9)
                ]
                results = await service.submit_many(
                    statements, return_exceptions=True
                )
            return service, results

        service, results = asyncio.run(scenario())
        assert service.metrics.queue_high_water <= 2
        served = [r for r in results if not isinstance(r, Exception)]
        shed = [r for r in results if isinstance(r, Overloaded)]
        assert len(served) + len(shed) == 8
        assert service.metrics.shed_overload == len(shed) > 0


class TestEverySubmissionIsCounted:
    def test_counters_account_for_every_way_out(self, governed_backend):
        # A refusal on the admission-time fast path and a malformed statement
        # used to propagate with ``submitted`` bumped and no other counter:
        # 10 submitted, 2 + 1 + 1 + 1 accounted for.
        metrics = serve_every_way_out(governed_backend).metrics
        assert metrics.submitted == 10
        assert (metrics.completed, metrics.cache_fast_hits) == (2, 1)
        assert metrics.refused == 6  # 2 refused hits, 3 malformed, 1 refused miss
        # The DP release and the infeasible statement took a queue slot: the
        # batch is where a plan refuses.  No plain statement did.
        assert metrics.admitted == 2
        assert (metrics.plan_infeasible, metrics.shed, metrics.failed) == (1, 1, 0)
        assert metrics.submitted == (
            metrics.completed
            + metrics.refused
            + metrics.failed
            + metrics.shed
            + metrics.plan_infeasible
        )


class TestPriorities:
    def test_higher_priority_executes_first(self):
        async def scenario():
            service = QueryService(fresh_federation(), max_batch=1)
            async with service:
                await asyncio.gather(
                    service.submit("SELECT MAX(value) FROM data", priority=0),
                    service.submit("SELECT TOP 3 value FROM data", priority=5),
                    service.submit("SELECT SUM(value) FROM data", priority=1),
                )
            return service

        service = asyncio.run(scenario())
        executed = [entry.statement for entry in service.federation.audit]
        assert executed == [
            "SELECT TOP 3 value FROM data",  # priority 5
            "SELECT SUM(value) FROM data",  # priority 1
            "SELECT MAX(value) FROM data",  # priority 0
        ]
