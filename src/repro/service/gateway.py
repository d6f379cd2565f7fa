"""The asyncio query gateway: a long-running service over a ``Federation``.

The paper's protocols answer one query per ring traversal;
``Federation.execute_many_settled`` amortizes cost across a batch; this gateway adds
the missing layer for *continuous* traffic — the same shape modern inference
servers use.  Clients ``await submit(statement)``; a background scheduler
coalesces whatever is queued into ``execute_many_settled`` batches (continuous
batching), serves repeats from the result cache without spending a batch
slot, and sheds load with typed errors instead of queuing unboundedly.

Determinism: with the default :class:`~repro.service.clock.SimulatedClock`
the service advances time itself by each batch's simulated protocol seconds,
so a seeded workload reproduces bit-identically — results (the federation's
batch/sequential parity guarantee), latency percentiles, shed decisions and
all.  Results served through the gateway are bit-identical to a sequential
``Federation.execute`` session issuing the same statements in serve order
under the same session seed.

Lifecycle::

    service = QueryService(federation, max_queue=64, max_batch=8)
    async with service:                       # or: await service.start()
        outcome = await service.submit("SELECT TOP 3 value FROM data")
        many = await service.submit_many(statements, timeout=5.0)
    # __aexit__ drains gracefully: queued work finishes, new work is refused
"""

from __future__ import annotations

import asyncio
import itertools
from collections.abc import Iterable, Sequence
from typing import Protocol

from ..federation.coordinator import QueryOutcome, QueryRefused
from ..federation.sql import SqlError
from ..observability.metrics import MetricsRegistry
from ..observability.trace import TraceContext, Tracer
from ..planner.accuracy import PredictionLedger
from ..planner.errors import PlanInfeasible
from ..planner.plan import ECONOMY, QUALITY, Plan
from ..planner.spec import Prepared, QuerySpec, prepare
from ..privacy.dp import DpGate
from .clock import Clock, SimulatedClock
from .errors import (
    DeadlineExceeded,
    Overloaded,
    QueryFailed,
    RateLimited,
    ServiceClosed,
    ServiceError,
)
from .metrics import ServiceMetrics
from .scheduler import AdmissionQueue, QueuedRequest, TokenBucket


class CacheStats(Protocol):
    """The result-cache statistics the metrics snapshot reads."""

    @property
    def hits(self) -> int: ...

    @property
    def misses(self) -> int: ...

    @property
    def hit_rate(self) -> float: ...


class FederationBackend(Protocol):
    """The surface :class:`QueryService` drives, flat or sharded.

    A sharded backend may also offer ``shard_snapshot()``; it stays
    optional and is probed where it is used.  ``plan_for`` is the backend's
    plan stage: the gateway reads a statement's plan there and hands the
    batch back only a downgraded statement's objective (``modes``), so what
    admission estimated is what the backend runs.
    """

    dp_gate: DpGate

    @property
    def cache(self) -> CacheStats: ...

    def plan_for(self, spec: QuerySpec, mode: str = QUALITY) -> Plan: ...

    def try_cached(
        self, statement_text: str, *, issuer: str = "anonymous"
    ) -> QueryOutcome | None: ...

    def execute_many_settled(
        self,
        statements: Iterable[str],
        *,
        issuer: str = "anonymous",
        traces: "Sequence[TraceContext | None] | None" = None,
        modes: "Sequence[str] | None" = None,
    ) -> "list[QueryOutcome | QueryRefused]": ...


class QueryService:
    """Async gateway serving a continuous stream of federated queries.

    Parameters
    ----------
    federation:
        The registered :class:`FederationBackend` — a flat
        :class:`~repro.federation.coordinator.Federation` or a
        :class:`~repro.sharding.federation.ShardedFederation` — that
        executes the queries.
    max_queue:
        Admission-queue bound; a full queue rejects new requests with
        :class:`~repro.service.errors.Overloaded`.
    max_batch:
        Most queries coalesced into one ``execute_many_settled`` call.
    batch_window:
        Real seconds the scheduler lingers after waking so concurrent
        submitters can join the forming batch; 0 yields to the event loop
        exactly once, which already coalesces everything submitted in the
        same loop iteration (e.g. one ``submit_many`` call).
    rate_limit / rate_burst:
        Per-issuer token bucket (requests/second and burst capacity) checked
        on the service clock; ``None`` disables rate limiting.
    clock:
        Time source for deadlines, rate limits and latency metrics.  The
        default :class:`~repro.service.clock.SimulatedClock` advances by
        each batch's simulated protocol time (deterministic).
    tracer:
        When given (and enabled), every submission opens one trace —
        ``query`` span, ``admission`` event, ``queue`` span, ``batch`` span,
        then the protocol/round/hop spans recorded by the execution layer —
        all timestamped on the service clock, so a seeded workload's traces
        are deterministic.  ``None`` (default) costs nothing.
    cost_budget_seconds:
        Cost-aware admission: when set, *every* statement's plan is read
        and the queue's total estimated simulated-seconds backlog is capped
        at this budget.  A request that would breach it is first re-planned
        in economy mode (a cheaper plan still honoring its declared SLO —
        the *downgrade* path), and only shed (``Overloaded``) when even the
        economy plan does not fit.  ``None`` (default) preserves
        depth-only admission.

    Statements carrying ``WITH SLO(...)`` clauses are always planned at
    admission by the backend's plan stage (``plan_for``), for cost
    admission and the accuracy ledger.  Nothing is refused there on a
    plan's or a budget's account: every statement that passes the cache
    fast path is queued, and its batch (the backend's
    ``execute_many_settled``) is the one place it is admitted.  So an SLO no
    plan meets is served when an earlier statement of its batch makes its
    answer public, as a sequential session would serve it, and refused
    :class:`~repro.planner.errors.PlanInfeasible` otherwise (never
    satisfiable, unlike ``Overloaded``'s retry-later).  With the queue full,
    such a statement — or one over its budget — is shed ``Overloaded``
    before it is refused.
    """

    def __init__(
        self,
        federation: FederationBackend,
        *,
        max_queue: int = 256,
        max_batch: int = 16,
        batch_window: float = 0.0,
        rate_limit: float | None = None,
        rate_burst: int = 8,
        clock: Clock | None = None,
        tracer: "Tracer | None" = None,
        cost_budget_seconds: float | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if batch_window < 0:
            raise ValueError(f"batch_window must be >= 0, got {batch_window}")
        self.federation = federation
        self.clock = clock if clock is not None else SimulatedClock()
        self.metrics = ServiceMetrics(batch_capacity=max_batch)
        self.tracer = tracer
        self._tracing = tracer is not None and tracer.enabled
        self._queue = AdmissionQueue(max_queue)
        self._max_batch = max_batch
        self._batch_window = batch_window
        self._rate_limit = rate_limit
        self._rate_burst = rate_burst
        if cost_budget_seconds is not None and cost_budget_seconds <= 0:
            raise ValueError(
                f"cost_budget_seconds must be positive, got {cost_budget_seconds}"
            )
        self._cost_budget = cost_budget_seconds
        #: Summed plan estimates of the batch currently executing: popped
        #: from the queue but not yet finished, so still part of the
        #: admission backlog (cleared when the batch settles).
        self._inflight_cost = 0.0
        #: Predicted-vs-actual ledger for every planned statement served.
        self.accuracy = PredictionLedger()
        self._buckets: dict[str, TokenBucket] = {}
        self._seq = itertools.count()
        self._wakeup = asyncio.Event()
        self._runner: asyncio.Task | None = None
        self._draining = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "QueryService":
        """Start the scheduler task (idempotent; ``submit`` also lazy-starts)."""
        self._ensure_runner()
        return self

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(self, *_exc_info) -> None:
        await self.close(drain=True)

    async def close(self, *, drain: bool = True) -> None:
        """Stop the service.

        With ``drain=True`` (graceful): new submissions are refused with
        :class:`ServiceClosed`, queued work is served to completion, then
        the scheduler exits.  With ``drain=False``: queued requests fail
        immediately with :class:`ServiceClosed`.
        """
        if self._closed:
            return
        self._draining = True
        if not drain:
            for request in self._queue.drain_all():
                self._fail(request, ServiceClosed("service closed before serving"))
        self._wakeup.set()
        if self._runner is not None:
            await self._runner
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed or self._draining

    def metrics_snapshot(self) -> dict[str, object]:
        """Service counters plus the federation cache's hit statistics."""
        snapshot = self.metrics.snapshot(queue_depth=self._queue.depth)
        cache = self.federation.cache
        snapshot["cache_hits"] = cache.hits
        snapshot["cache_misses"] = cache.misses
        snapshot["cache_hit_rate"] = round(cache.hit_rate, 6)
        snapshot["planner"] = self.accuracy.snapshot()
        shard_snapshot = getattr(self.federation, "shard_snapshot", None)
        if shard_snapshot is not None:
            snapshot["sharding"] = shard_snapshot()
        snapshot["dp"] = self.federation.dp_gate.snapshot()
        return snapshot

    def export_metrics(
        self, registry: "MetricsRegistry | None" = None
    ) -> "MetricsRegistry":
        """Publish the service's counters into a central metrics registry.

        Creates a fresh :class:`~repro.observability.metrics.MetricsRegistry`
        unless one is passed in (callers unify several sources — service,
        traffic, kernel phases — into one registry before exporting).
        """
        registry = registry if registry is not None else MetricsRegistry()
        registry.absorb_service(self.metrics, queue_depth=self._queue.depth)
        cache = self.federation.cache
        family = registry.counter(
            "repro_cache_events_total",
            "Result-cache lookups by outcome.",
            ("event",),
        )
        family.set_total(cache.hits, labels={"event": "hit"})
        family.set_total(cache.misses, labels={"event": "miss"})
        self.accuracy.export(registry)
        registry.absorb_dp(self.federation.dp_gate.snapshot())
        return registry

    # -- tracing ---------------------------------------------------------------

    def _trace_shed(
        self,
        query_ctx: "TraceContext | None",
        outcome: str,
        now: float,
        **closing: object,
    ) -> None:
        """Record an admission rejection and close the query span.

        ``closing`` adds attributes to the closed span (a refusal's error type).
        """
        if query_ctx is None:
            return
        self.tracer.event(
            query_ctx, "admission", at=now, kind="service",
            attrs={"outcome": outcome},
        )
        self.tracer.close_span(query_ctx, at=now, attrs={"outcome": outcome, **closing})

    def _trace_finish(
        self, request: QueuedRequest, at: float, attrs: dict
    ) -> None:
        """Close whatever spans the request still holds open, then its query."""
        if request.trace is None:
            return
        tracer = self.tracer
        if request.queue_span is not None:
            tracer.close_span(request.queue_span, at=at)
            request.queue_span = None
        if request.batch_span is not None:
            tracer.close_span(request.batch_span, at=at)
            request.batch_span = None
        tracer.close_span(request.trace, at=at, attrs=attrs)

    # -- planning / cost admission ---------------------------------------------

    def _cost_backlog(self) -> float:
        """Estimated simulated seconds admitted but not yet finished.

        Counts planned requests still in the queue *plus* the batch
        currently executing — it was popped from the queue, but its work is
        not done, so dropping it would let admission transiently overshoot
        the cost budget by up to one full batch.
        """
        return self._inflight_cost + sum(
            queued.plan.estimate.simulated_seconds
            for queued in self._queue.snapshot()
            if queued.plan is not None
        )

    def _admission_plan(
        self, prepared: Prepared, query_ctx: "TraceContext | None", now: float
    ) -> "Plan | None":
        """Read the statement's plan from the backend and enforce the cost budget.

        SLO'd statements are always planned.  One whose SLO no plan meets is
        queued unplanned (``None``, quality mode): its batch decides it, and
        serves it if an earlier statement there makes its answer public.
        With ``cost_budget_seconds`` set, every statement's plan is
        read (a plain statement's is its backend's base configuration) and
        the queue's estimated backlog is capped: an over-budget request
        is first re-planned in economy mode (the *downgrade* path, still
        honoring its declared SLO) and shed with :class:`Overloaded` only
        when even the economy plan does not fit.
        """
        if self._cost_budget is None and prepared.trivial:
            return None
        try:
            plan = self.federation.plan_for(prepared.spec)
        except PlanInfeasible:
            return None
        if self._cost_budget is None:
            return plan
        backlog = self._cost_backlog()
        if backlog + plan.estimate.simulated_seconds <= self._cost_budget:
            return plan
        # The quality plan was feasible, so the economy objective ranks the
        # same non-empty candidate set — it cannot raise.
        economy = self.federation.plan_for(prepared.spec, ECONOMY)
        if (
            economy.estimate.simulated_seconds < plan.estimate.simulated_seconds
            and backlog + economy.estimate.simulated_seconds <= self._cost_budget
        ):
            self.metrics.downgraded += 1
            if query_ctx is not None:
                self.tracer.event(
                    query_ctx, "downgraded", at=now, kind="service",
                    attrs={
                        "from_rounds": plan.estimate.rounds,
                        "to_rounds": economy.estimate.rounds,
                        "from_protocol": plan.protocol,
                        "to_protocol": economy.protocol,
                    },
                )
            return economy
        self.metrics.shed_cost += 1
        self._trace_shed(query_ctx, "shed-cost", now)
        raise Overloaded(
            f"estimated cost {plan.estimate.simulated_seconds:.4f}s would "
            f"push the {backlog:.4f}s backlog past the "
            f"{self._cost_budget:g}s budget",
            queue_depth=self._queue.depth,
            limit=self._queue.max_depth,
        )

    # -- submission ------------------------------------------------------------

    async def submit(
        self,
        statement: str,
        *,
        issuer: str = "anonymous",
        priority: int = 0,
        timeout: float | None = None,
    ) -> QueryOutcome:
        """Admit one statement and await its outcome.

        ``timeout`` is a relative deadline in service-clock seconds: a
        request still queued when it expires is shed with
        :class:`DeadlineExceeded`.  Once a request is dispatched into a
        batch its result is always delivered — the protocol ran and the
        exposure was charged, so discarding the public answer would waste
        both.  ``priority`` orders batch formation (higher first, FIFO
        within a level).  Service-level rejections raise
        :class:`~repro.service.errors.ServiceError` subclasses; per-query
        federation refusals (``SqlError``, ``SchemaError``, ``DpRequired``,
        ``PlanInfeasible``) propagate as their original typed errors, and
        every budget refusal — a party's or a tenant's LoP, the federation's
        or a tenant's (ε, δ) — as one ``BudgetExhausted`` whose
        ``dimension`` names the meter (``"lop"``, ``"epsilon"`` or
        ``"delta"``).  Only a malformed statement and the issuer rule refuse
        before the queue: a DP-governed issuer — one a finite (ε, δ) budget
        applies to, the federation's or its tenant's — gets ``DpRequired``
        for a statement without ``dp_epsilon`` from the cache fast path, hit
        or miss, so it never takes a queue slot.  Every other refusal, a
        plan's and every budget's, is the batch's, against what the batch
        already admitted.
        """
        self.metrics.submitted += 1
        if self.closed:
            raise ServiceClosed("service is closed to new queries")
        # Malformed statements (and SLO clauses) never reach the queue.
        try:
            prepared = prepare(statement)
        except SqlError:
            self.metrics.refused += 1
            raise
        now = self.clock.now()
        query_ctx: "TraceContext | None" = None
        if self._tracing:
            trace = self.tracer.new_trace(
                name=statement,
                baggage={"statement": statement, "issuer": issuer},
            )
            query_ctx = self.tracer.open_span(
                trace, "query", at=now, kind="service",
                attrs={"issuer": issuer},
            )
        if timeout is not None and timeout <= 0:
            self.metrics.shed_deadline += 1
            self._trace_shed(query_ctx, "shed-deadline", now)
            raise DeadlineExceeded(f"timeout {timeout}s already expired")
        if self._rate_limit is not None and not self._bucket(issuer).try_take(now):
            self.metrics.shed_rate_limited += 1
            self._trace_shed(query_ctx, "shed-rate-limited", now)
            raise RateLimited(
                f"issuer {issuer!r} exceeded {self._rate_limit}/s "
                f"(burst {self._rate_burst})"
            )
        # Cache fast path: an already-public answer is re-served immediately
        # and never occupies a queue or batch slot.
        try:
            cached = self.federation.try_cached(statement, issuer=issuer)
        except Exception as refusal:  # e.g. DpRequired for a governed issuer
            self.metrics.refused += 1
            self._trace_shed(query_ctx, "refused", now, error=type(refusal).__name__)
            raise
        if cached is not None:
            self.metrics.cache_fast_hits += 1
            self.metrics.completed += 1
            self.metrics.latency.record(0.0)
            if query_ctx is not None:
                self.tracer.event(
                    query_ctx, "admission", at=now, kind="service",
                    attrs={"outcome": "cache-hit"},
                )
                self.tracer.close_span(
                    query_ctx, at=now,
                    attrs={"outcome": "cache-hit", "cached": True},
                )
            return cached
        plan = self._admission_plan(prepared, query_ctx, now)
        request = QueuedRequest(
            statement=statement,
            issuer=issuer,
            priority=priority,
            deadline=(now + timeout) if timeout is not None else None,
            admitted_at=now,
            seq=next(self._seq),
            future=asyncio.get_running_loop().create_future(),
            trace=query_ctx,
            plan=plan,
        )
        try:
            self._queue.push(request)
        except ServiceError:
            self.metrics.shed_overload += 1
            self._trace_shed(query_ctx, "shed-overload", now)
            raise
        self.metrics.admitted += 1
        if query_ctx is not None:
            self.tracer.event(
                query_ctx, "admission", at=now, kind="service",
                attrs={"outcome": "admitted"},
            )
            request.queue_span = self.tracer.open_span(
                query_ctx, "queue", at=now, kind="service"
            )
        self.metrics.queue_high_water = max(
            self.metrics.queue_high_water, self._queue.depth
        )
        self._ensure_runner()
        self._wakeup.set()
        return await request.future

    async def submit_many(
        self,
        statements: Iterable[str],
        *,
        issuer: str = "anonymous",
        priority: int = 0,
        timeout: float | None = None,
        return_exceptions: bool = False,
    ) -> "Sequence[QueryOutcome | BaseException]":
        """Submit a burst concurrently; results in statement order.

        All statements are admitted in the same event-loop iteration, so
        they coalesce into as few batches as capacity allows.  With
        ``return_exceptions=True`` shed/refused entries appear as exception
        *objects* at their positions instead of aborting the gather —
        the natural mode under deliberate overload.
        """
        return await asyncio.gather(
            *(
                self.submit(
                    statement, issuer=issuer, priority=priority, timeout=timeout
                )
                for statement in statements
            ),
            return_exceptions=return_exceptions,
        )

    # -- scheduler ------------------------------------------------------------

    def _bucket(self, issuer: str) -> TokenBucket:
        bucket = self._buckets.get(issuer)
        if bucket is None:
            assert self._rate_limit is not None
            bucket = TokenBucket(
                rate=self._rate_limit,
                burst=float(self._rate_burst),
                updated=self.clock.now(),
            )
            self._buckets[issuer] = bucket
        return bucket

    def _ensure_runner(self) -> None:
        if self._runner is None or self._runner.done():
            if self._runner is not None and not self._runner.cancelled():
                # Surface a crashed scheduler instead of silently restarting.
                error = self._runner.exception()
                if error is not None:
                    raise QueryFailed("scheduler crashed", cause=error)
            self._runner = asyncio.get_running_loop().create_task(
                self._run(), name="repro-query-service"
            )

    async def _run(self) -> None:
        try:
            while True:
                if not self._queue.depth:
                    if self._draining:
                        return
                    self._wakeup.clear()
                    await self._wakeup.wait()
                    continue
                # Let submitters scheduled in this loop iteration join the
                # forming batch (continuous batching's coalescing window).
                if self._batch_window > 0:
                    await asyncio.sleep(self._batch_window)
                else:
                    await asyncio.sleep(0)
                self._serve_cycle()
        finally:
            for request in self._queue.drain_all():
                self._fail(request, ServiceClosed("service stopped"))

    def _serve_cycle(self) -> None:
        """One scheduling cycle: shed, fast-path, then execute one batch."""
        now = self.clock.now()
        for request in self._queue.expire(now):
            self.metrics.shed_deadline += 1
            self._fail(
                request,
                DeadlineExceeded(
                    f"deadline expired after {now - request.admitted_at:.6f}s "
                    f"in queue"
                ),
            )
        # Dequeue-time cache fast path: an earlier batch may have answered a
        # statement that was already queued; serve those hits now so they do
        # not occupy batch slots.
        for request in self._queue.snapshot():
            try:
                cached = self.federation.try_cached(
                    request.statement, issuer=request.issuer
                )
            except Exception as refusal:  # e.g. a DP budget installed since admission
                self._queue.remove(request)
                self.metrics.refused += 1
                self._fail(request, refusal)
                continue
            if cached is not None:
                self._queue.remove(request)
                self.metrics.cache_fast_hits += 1
                self._complete(request, cached, now)
        batch = self._queue.next_batch(self._max_batch)
        if not batch:
            return
        self.metrics.batches += 1
        self.metrics.batched_queries += len(batch)
        issuer = batch[0].issuer
        traces: "list[TraceContext | None] | None" = None
        if self._tracing:
            # Queueing ends here: rotate each request's queue span into a
            # batch span, and hand the execution layer a context whose time
            # offset places transport-clocked protocol spans (which start at
            # zero within the batch) onto the service timeline.
            batch_index = self.metrics.batches
            traces = []
            for request in batch:
                if request.trace is None:
                    traces.append(None)
                    continue
                if request.queue_span is not None:
                    self.tracer.close_span(request.queue_span, at=now)
                    request.queue_span = None
                request.batch_span = self.tracer.open_span(
                    request.trace,
                    "batch",
                    at=now,
                    kind="service",
                    attrs={"batch_index": batch_index, "batch_size": len(batch)},
                )
                traces.append(request.batch_span.with_offset(now))
        self._inflight_cost = sum(
            request.plan.estimate.simulated_seconds
            for request in batch
            if request.plan is not None
        )
        try:
            try:
                settled = self.federation.execute_many_settled(
                    [request.statement for request in batch],
                    issuer=issuer,
                    traces=traces,
                    modes=[
                        QUALITY if request.plan is None else request.plan.mode
                        for request in batch
                    ],
                )
            except Exception as exc:
                # Batch-level failure (e.g. an unrecoverable ring crash):
                # every request in the batch fails with a typed,
                # attributable error.
                for request in batch:
                    self.metrics.failed += 1
                    self._fail(
                        request,
                        QueryFailed(f"batch execution failed: {exc}", cause=exc),
                    )
                return
            # Advance simulated time by the batch's makespan: interleaved
            # queries complete together at the slowest query's finish line.
            self.clock.advance(
                max(
                    (
                        outcome.simulated_seconds
                        for outcome in settled
                        if isinstance(outcome, QueryOutcome)
                    ),
                    default=0.0,
                )
            )
            now = self.clock.now()
            for request, outcome in zip(batch, settled):
                if isinstance(outcome, QueryRefused):
                    if isinstance(outcome.error, PlanInfeasible):
                        self.metrics.plan_infeasible += 1
                    else:
                        self.metrics.refused += 1
                    self._fail(request, outcome.error)
                else:
                    self._record_accuracy(request, outcome)
                    self._complete(request, outcome, now)
        finally:
            self._inflight_cost = 0.0

    def _record_accuracy(
        self, request: QueuedRequest, outcome: QueryOutcome
    ) -> None:
        """Ledger one planned, executed statement's predicted-vs-actual.

        Cache hits are skipped (nothing ran, nothing to audit).
        """
        plan = request.plan
        if plan is None or not self.accuracy.record_outcome(plan, outcome):
            return
        if request.batch_span is not None:
            est = plan.estimate
            self.tracer.event(
                request.batch_span,
                "plan-accuracy",
                at=self.clock.now(),
                kind="service",
                attrs={
                    "predicted_rounds": est.rounds,
                    "actual_rounds": outcome.rounds,
                    "predicted_messages": est.messages,
                    "actual_messages": outcome.messages,
                    "predicted_seconds": est.simulated_seconds,
                    "actual_seconds": outcome.simulated_seconds,
                },
            )

    # -- resolution ------------------------------------------------------------

    def _complete(
        self, request: QueuedRequest, outcome: QueryOutcome, now: float
    ) -> None:
        self.metrics.completed += 1
        self.metrics.latency.record(max(0.0, now - request.admitted_at))
        self._trace_finish(
            request, now, {"outcome": "completed", "cached": outcome.cached}
        )
        if not request.future.done():
            request.future.set_result(outcome)

    def _fail(self, request: QueuedRequest, error: BaseException) -> None:
        self._trace_finish(
            request,
            self.clock.now(),
            {"outcome": "failed", "error": type(error).__name__},
        )
        if not request.future.done():
            request.future.set_exception(error)


__all__ = ["QueryService"]
