"""A federation of federations: routing, concurrent fan-out, exact merge.

``ShardedFederation`` presents the same query surface the gateway already
drives (``execute_many_settled``, ``try_cached``, ``members``, ``cache``,
``planner``) over a set of shard backends, so ``QueryService`` serves a
sharded deployment without a single special case: statements are routed to
the shard owning their table, statements over *partitioned* tables fan out
to every shard, and the partial answers merge exactly.

Merge exactness (the docs/SHARDING.md argument, pinned by the property
tests): the protocols' ranking answers are order-preserving —
``topk(A ∪ B) == topk(topk(A) ∪ topk(B))`` for any partition of the rows —
so concatenating per-shard top-k vectors and keeping the k best reproduces
the unsharded vector.  MAX/MIN are the k=1 case; COUNT is a sum of exact
integers; SUM/AVG combine per-shard secure-sum totals additively.  On
workloads where the protocol itself is exact (``p0=0`` schedules, the naive
protocol, integer-valued aggregates) the sharded result is therefore
*bit-identical* to a single federation holding all the data.

The router's per-tenant controls run here, before any shard is touched: a
tenant's cross-shard token bucket sheds with
:class:`~repro.sharding.errors.TenantRateLimited`, and ranking statements
under a tenant LoP budget are planned with ``max_lop`` tightened to the
remaining allowance — the planner's feasibility filter refuses what the
tenant can no longer afford (:class:`TenantBudgetExceeded`) without
spending a protocol round.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from ..database.query import Domain
from ..federation.cache import CachedAnswer
from ..federation.dp_release import DpBatch, DpReleasePath
from ..federation.outcomes import FederationError, QueryOutcome, QueryRefused
from ..observability.trace import TraceContext
from ..planner.errors import PlanInfeasible
from ..planner.plan import Plan
from ..planner.planner import QueryPlanner
from ..planner.spec import QuerySpec, prepare
from ..privacy.dp import DpGate, DpPolicy
from .errors import ShardError, ShardUnavailable, TenantBudgetExceeded
from .router import ALL_SHARDS, ShardRouter, TenantPolicy


class _ShardedCacheStats:
    """Read-only aggregate of every shard's result-cache statistics.

    Duck-types the ``hits``/``misses``/``hit_rate`` surface the gateway's
    metrics snapshot reads.  An unreachable shard contributes its last
    known counts (initially zero) instead of failing a metrics read.
    """

    def __init__(self, owner: "ShardedFederation") -> None:
        self._owner = owner
        self._last: dict[int, tuple[int, int]] = {}

    def _totals(self) -> tuple[int, int]:
        hits = misses = 0
        for index, shard in enumerate(self._owner.shards):
            try:
                stats = shard.cache_stats()
                self._last[index] = stats
            except ShardUnavailable:
                stats = self._last.get(index, (0, 0))
            hits += stats[0]
            misses += stats[1]
        return hits, misses

    @property
    def hits(self) -> int:
        return self._totals()[0]

    @property
    def misses(self) -> int:
        return self._totals()[1]

    @property
    def hit_rate(self) -> float:
        hits, misses = self._totals()
        total = hits + misses
        return hits / total if total else 0.0


class ShardedFederation:
    """Route, fan out, and merge federated statements across shards.

    Parameters
    ----------
    shards:
        The shard backends, in placement order (index ``i`` serves the
        tables :func:`~repro.sharding.router.shard_index` maps to ``i``).
        Mixing :class:`~repro.sharding.shards.LocalShard` and
        :class:`~repro.sharding.shards.ProcessShard` is allowed.
    router:
        Placement + tenant admission; defaults to a fresh
        :class:`~repro.sharding.router.ShardRouter` over ``len(shards)``
        with no partitioned tables and no tenant policies.
    planner:
        Used for the tenant LoP feasibility filter; defaults to a planner
        with the reference calibration.
    clock:
        Time source for tenant token buckets (a ``() -> float`` callable).
        Defaults to ``time.monotonic``; deterministic deployments pass
        their service clock's ``now``.
    dp:
        Differential-privacy policy for the federation-wide release gate
        (see :mod:`repro.privacy.dp`).  The gate lives *here*, above the
        shards, so a DP statement's budget is composed once regardless of
        how its inner statements scatter — which is what keeps the
        accountant's ledger byte-identical to a flat federation serving
        the same workload.
    domain:
        Default public :class:`~repro.database.query.Domain` used to
        calibrate DP mechanisms when no per-attribute domain was
        registered via :meth:`register_domain`.  ``None`` means DP
        statements refuse until a domain is declared.
    """

    def __init__(
        self,
        shards: Sequence,
        *,
        router: "ShardRouter | None" = None,
        planner: "QueryPlanner | None" = None,
        clock: "Callable[[], float] | None" = None,
        dp: "DpPolicy | None" = None,
        domain: "Domain | None" = None,
    ) -> None:
        if not shards:
            raise ShardError("at least one shard is required")
        self.shards = list(shards)
        self.router = (
            router if router is not None else ShardRouter(len(self.shards))
        )
        if self.router.shard_count != len(self.shards):
            raise ShardError(
                f"router places tables on {self.router.shard_count} shards "
                f"but {len(self.shards)} were supplied"
            )
        self.planner = planner if planner is not None else QueryPlanner()
        self._clock = clock if clock is not None else time.monotonic
        self.cache = _ShardedCacheStats(self)
        self._members: tuple[str, ...] | None = None
        #: Per-shard serving counters (statements dispatched, refusals,
        #: unavailable refusals, simulated seconds), for metrics export.
        self.shard_queries: Counter[int] = Counter()
        self.shard_refusals: Counter[int] = Counter()
        self.shard_unavailable: Counter[int] = Counter()
        self.fanout_statements = 0
        self.domain = domain
        self._attribute_domains: dict[tuple[str, str], Domain] = {}
        self.dp_gate = DpGate(dp)
        self._dp = DpReleasePath(
            self.dp_gate,
            self.domain_for,
            lambda spec: self.planner.plan(spec, parties=len(self.members)),
            meters=self.router,
        )
        #: Fresh-release epsilon attributed to the shard whose data backed
        #: it ("all" for fan-outs over partitioned tables).
        self.dp_spend_by_shard: defaultdict[str, float] = defaultdict(float)

    # -- domains -------------------------------------------------------------

    def register_domain(self, table: str, attribute: str, domain: Domain) -> None:
        """Declare the public domain of one attribute (DP calibration input)."""
        self._attribute_domains[(table, attribute)] = domain

    def domain_for(self, table: str, attribute: str) -> "Domain | None":
        return self._attribute_domains.get((table, attribute), self.domain)

    # -- membership ----------------------------------------------------------

    @property
    def members(self) -> tuple[str, ...]:
        if self._members is None:
            seen: set[str] = set()
            for shard in self.shards:
                seen.update(shard.members())
            self._members = tuple(sorted(seen))
        return self._members

    def register(self, database, *, shard: int) -> None:
        """Enroll one party's database into shard ``shard``.

        Membership is per shard: the shard's epoch bumps and its cached
        answers (including every fan-out partial it contributed) are
        invalidated; other shards' caches are untouched.
        """
        self.shards[self._shard_of(shard)].register(database)
        self._members = None

    def deregister(self, owner: str, *, shard: int) -> None:
        self.shards[self._shard_of(shard)].deregister(owner)
        self._members = None

    def _shard_of(self, index: int) -> int:
        if not 0 <= index < len(self.shards):
            raise ShardError(
                f"no such shard {index}; have {len(self.shards)}"
            )
        return index

    def set_tenant(self, issuer: str, policy: TenantPolicy) -> None:
        """Install one tenant's cross-shard allowances on the router."""
        self.router.set_tenant(issuer, policy)

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    # -- query surface -------------------------------------------------------

    def execute(
        self, statement_text: str, *, issuer: str = "anonymous"
    ) -> QueryOutcome:
        """One statement as a batch of one: repeats hit the shard caches."""
        return self.execute_many([statement_text], issuer=issuer)[0]

    def execute_many(
        self,
        statements: Iterable[str],
        *,
        issuer: str = "anonymous",
        traces: "Sequence[TraceContext | None] | None" = None,
        plans: "Sequence[Plan | None] | None" = None,
    ) -> list[QueryOutcome]:
        """Serve a batch, raising the first refusal instead of settling it.

        Every refusal this federation decides itself — a malformed
        statement, the issuer rule, tenant admission, tenant LoP
        feasibility, DP admission — raises *before* any shard is touched:
        nothing runs, nothing is charged, nothing is cached (the flat
        federation's "a batch with a malformed statement does not execute
        at all").  Refusals only a shard can decide (its exposure ledger, an
        unreachable worker), and a DP budget found exhausted once the inner
        answers are in, surface after dispatch: the batch has run and is
        fully accounted, and the first such refusal in statement order is
        raised.
        """
        settled = self._run_batch(list(statements), issuer, traces, plans, settle=False)
        for result in settled:
            if isinstance(result, QueryRefused):
                raise result.error
        return settled  # type: ignore[return-value]  # no refusal left

    def try_cached(
        self, statement_text: str, *, issuer: str = "anonymous"
    ) -> QueryOutcome | None:
        """Serve a statement from the shard caches, or ``None`` on a miss.

        Routed statements consult the owning shard's cache; fan-out
        statements are a hit only when *every* shard holds the partial —
        which is exactly what makes cross-shard epoch invalidation work:
        one shard's membership/data change misses there and forces a fresh
        fan-out.  Every shard is peeked before any serves, so a fan-out miss
        audits and counts nothing anywhere.  An unreachable shard reads as a
        miss, so the admission fast path never throws for that; the
        statement is refused typed when it actually executes.  A malformed
        statement raises its :class:`~repro.federation.sql.SqlError`, like
        the flat federation.

        A DP statement hits only when the shared release path finds a sound
        free re-serve (see :meth:`DpReleasePath.try_cached`): every inner
        answer still cache-valid on its shard(s) and the very one the
        release perturbed.  It spends zero budget, federation and tenant both.
        A DP-governed issuer's statement without ``dp_epsilon`` raises
        :class:`~repro.privacy.dp.DpRequired`, hit or miss, before any shard
        is asked.
        """
        prepared = prepare(statement_text)
        self._dp.require_dp(prepared.spec, issuer)
        if not prepared.has_dp:
            return self._try_cached_plain(statement_text, issuer)

        def serve(inner_texts: Sequence[str]) -> None:
            # Only now is the re-serve certain: audit and count the hits.
            for inner in inner_texts:
                self._serve_cached(inner, issuer)

        return self._dp.try_cached(prepared.spec, self._peek, serve)

    def _try_cached_plain(
        self, statement_text: str, issuer: str
    ) -> QueryOutcome | None:
        """A routed statement is one shard's atomic ``try_cached``; a fan-out
        serves no shard's partial until every shard's peek has hit."""
        target = self.router.route(prepare(statement_text).spec.statement.table)
        if target == ALL_SHARDS and self._peek(statement_text) is None:
            return None
        return self._serve_cached(statement_text, issuer)

    def _serve_cached(
        self, statement_text: str, issuer: str
    ) -> QueryOutcome | None:
        return self._on_cache(
            statement_text,
            lambda shard, text: shard.try_cached(text, issuer=issuer),
            lambda shard, texts: shard.try_cached_many(texts, issuer=issuer),
            lambda statement, partials: _merge_fanout(
                statement, statement_text, partials
            ),
        )

    def _peek(self, statement_text: str) -> "CachedAnswer | None":
        """A statement's cache-valid answer; serves nothing, counts nothing."""

        def merge(statement, partials: "list[list[CachedAnswer]]") -> CachedAnswer:
            values = _merged_values(statement, [[a.values for a in p] for p in partials])
            return CachedAnswer(values=values, protocol=partials[0][0].protocol)

        return self._on_cache(
            statement_text,
            lambda shard, text: shard.peek(text),
            lambda shard, texts: shard.peek_many(texts),
            merge,
        )

    def _on_cache(
        self,
        statement_text: str,
        look: Callable,
        look_many: Callable,
        merge: Callable,
    ):
        """The statement's answer from its shard(s); ``None`` on a miss.

        A routed statement's answer is ``look(shard, text)`` on its shard,
        verbatim.  A fan-out asks every shard for all of
        :func:`_fanout_texts` in one ``look_many(shard, texts)`` exchange
        each, every request written before any reply is read
        (:func:`_gather`); it is a hit only when every shard answers every
        text, which ``merge(statement, partials)`` combines.  An unreachable
        shard reads as a miss.
        """
        statement = prepare(statement_text).spec.statement
        target = self.router.route(statement.table)
        try:
            if target != ALL_SHARDS:
                return look(self.shards[target], statement_text)
            texts = _fanout_texts(statement)
            partials = _gather(self.shards, lambda shard: look_many(shard, texts))
        except ShardUnavailable:
            return None
        if any(answer is None for answers in partials for answer in answers):
            return None
        return merge(statement, partials)

    def dp_admission_check(self, spec: QuerySpec, *, issuer: str = "anonymous") -> None:
        """Gateway hook: refuse a DP statement that can neither reuse nor pay.

        :meth:`DpReleasePath.admission_check` against the federation-wide
        accountant *and* the tenant's DP meters.
        """
        self._dp.admission_check(spec, issuer=issuer)

    def execute_many_settled(
        self,
        statements: Iterable[str],
        *,
        issuer: str = "anonymous",
        traces: "Sequence[TraceContext | None] | None" = None,
        plans: "Sequence[Plan | None] | None" = None,
    ) -> "list[QueryOutcome | QueryRefused]":
        """Serve a batch across shards; every refusal settles per statement.

        Per statement, in order: parse → the issuer rule → tenant token
        bucket → route → tenant LoP feasibility → DP admission (the shared
        release path, with this federation's precheck).  Every involved
        shard then gets one sub-batch (:meth:`_dispatch`): a routed
        statement runs on its shard, a statement over a partitioned table on
        every shard, merged; a DP statement's inner statements run in its
        place.  A shard that fails —
        unreachable process, poisoned batch — refuses exactly the statements
        sent to it, typed, while the rest of the batch is served normally.
        """
        return self._run_batch(list(statements), issuer, traces, plans, settle=True)

    def _run_batch(
        self,
        texts: list[str],
        issuer: str,
        traces: "Sequence[TraceContext | None] | None",
        plans: "Sequence[Plan | None] | None",
        *,
        settle: bool,
    ) -> "list[QueryOutcome | QueryRefused]":
        """The batch body; ``settle=False`` raises a pre-dispatch refusal."""
        if not texts:
            return []
        pending_lop: dict[int, float] = {}
        now = self._clock()

        def precheck(position: int, spec: QuerySpec) -> "int | Exception":
            try:
                self.router.admit(issuer, now)
            except ShardError as exc:
                return exc
            target = self.router.route(spec.statement.table)
            try:
                charge = self._tenant_feasibility(
                    spec, issuer, self._parties_for(target)
                )
            except (TenantBudgetExceeded, PlanInfeasible) as exc:
                self.router.note_refusal(issuer)
                return exc
            if charge is not None:
                pending_lop[position] = charge
            self._trace_route(traces, position, target, spec.statement.table)
            return target

        batch = self._dp.expand(
            texts, traces, plans, issuer=issuer, settle=settle, precheck=precheck
        )
        # From here shards run protocols and charge ledgers, so a later
        # refusal settles: the accounting below must see the whole batch.
        batch.settle = True
        self._dispatch(batch)
        results = self._dp.assemble(batch)

        for position, _spec, target in batch.admitted:
            slot = batch.slots.get(position)
            if slot is not None and slot.charged:
                # Fresh-release epsilon lands on the shard owning the data.
                shard_key = "all" if target == ALL_SHARDS else str(target)
                self.dp_spend_by_shard[shard_key] += slot.request.epsilon
            # Tenant LoP charges land only for statements that actually ran
            # a protocol: cache hits and refusals spend nothing.  For DP
            # statements that is decided by the *inner* executions — a fresh
            # noisy release over still-cached inner answers runs no protocol.
            outcome = results[position]
            if position in pending_lop and isinstance(outcome, QueryOutcome):
                ran = slot.executed if slot is not None else not outcome.cached
                if ran:
                    self.router.charge_lop(issuer, pending_lop[position])
        return results

    # -- tenant admission ----------------------------------------------------

    def _parties_for(self, target: int) -> int:
        if target == ALL_SHARDS:
            return max(len(shard.members()) for shard in self.shards)
        return len(self.shards[target].members())

    def _tenant_feasibility(
        self, spec: QuerySpec, issuer: str, parties: int
    ) -> float | None:
        """Plan under the tenant's remaining LoP budget; return the charge.

        Returns the expected-LoP charge to record if the statement
        executes, or ``None`` when the tenant is unregistered or the
        statement is additive (secure sums are charged nothing, exactly
        like the federation's own ledger).  A registered tenant *without*
        an LoP budget still gets a charge — its meter is unmetered but
        records, so the snapshot shows real spend and a budget installed
        later binds against history — just with no tightening and no
        budget refusal.  Raises :class:`TenantBudgetExceeded` when only
        the budget tightening made the plan infeasible, and lets a
        genuinely unsatisfiable SLO propagate as :class:`PlanInfeasible`.
        """
        if not spec.statement.is_ranking:
            return None
        remaining = self.router.remaining_lop(issuer)
        if remaining is None:
            if self.router.tenant(issuer) is None:
                return None
            try:
                plan = self.planner.plan(spec, parties=parties)
            except PlanInfeasible:
                # The owning shard refuses this statement itself; keep the
                # unbudgeted path's refusal attribution unchanged.
                return None
            return plan.estimate.expected_lop
        if remaining <= 0.0:
            raise TenantBudgetExceeded(
                f"tenant {issuer!r} has exhausted its LoP budget; "
                f"{spec.statement.text!r} refused"
            )
        slo_cap = spec.slo.max_lop
        # Slo.max_lop lives in (0, 1] — LoP is a probability — so a budget
        # remainder above 1.0 cannot bind a single statement and clamps.
        tightened = min(1.0, remaining if slo_cap is None else min(slo_cap, remaining))
        budget_spec = replace(spec, slo=replace(spec.slo, max_lop=tightened))
        try:
            plan = self.planner.plan(budget_spec, parties=parties)
        except PlanInfeasible as exc:
            if slo_cap is not None and slo_cap <= tightened:
                raise  # the declared SLO itself is unsatisfiable
            raise TenantBudgetExceeded(
                f"tenant {issuer!r} has {remaining:.4f} LoP budget left; "
                f"no plan for {spec.statement.text!r} fits it: {exc}"
            ) from exc
        return plan.estimate.expected_lop

    # -- dispatch ------------------------------------------------------------

    def _trace_route(
        self,
        traces: "Sequence[TraceContext | None] | None",
        position: int,
        target: int,
        table: str,
    ) -> None:
        """Tag the statement's span with its routing decision."""
        if traces is None:
            return
        trace = traces[position]
        if trace is None or not trace.tracer.enabled or trace.span_id is None:
            return
        trace.tracer.event(
            trace,
            "shard-route",
            at=0.0,
            attrs={
                "shard": "all" if target == ALL_SHARDS else target,
                "table": table,
            },
        )

    def _settle_shard(
        self,
        index: int,
        sub_texts: list[str],
        issuer: str,
        traces: "Sequence[TraceContext | None] | None" = None,
        plans: "Sequence[Plan | None] | None" = None,
    ) -> "list[QueryOutcome | QueryRefused]":
        """One shard's sub-batch; its failure refuses exactly these statements."""
        self.shard_queries[index] += len(sub_texts)
        try:
            return self.shards[index].execute_many_settled(
                sub_texts, issuer=issuer, traces=traces, plans=plans
            )
        except ShardUnavailable as exc:
            self.shard_unavailable[index] += len(sub_texts)
            error: Exception = exc
        except Exception as exc:  # noqa: BLE001 — shard failure stays local
            error = ShardError(
                f"shard {index} failed its batch: {type(exc).__name__}: {exc}"
            )
            error.__cause__ = exc
        return [QueryRefused(statement=text, error=error) for text in sub_texts]

    def _on_shards(self, indices: Sequence[int], run: Callable[[int], list]) -> list:
        """``run(index)`` per shard, in ``indices`` order: on pool threads iff
        every involved shard is ``concurrent`` (see ``LocalShard.concurrent``).
        """
        if len(indices) > 1 and all(
            getattr(self.shards[index], "concurrent", False) for index in indices
        ):
            with ThreadPoolExecutor(max_workers=len(indices)) as pool:
                return list(pool.map(run, indices))
        return [run(index) for index in indices]

    def _dispatch(self, batch: DpBatch) -> None:
        """Run every admitted statement on its shards: one sub-batch per shard.

        A routed statement is a fan-out to its one shard whose merge is the
        identity (the shard's outcome is returned verbatim, LoP and all);
        a statement over a partitioned table runs :func:`_fanout_texts` on
        every shard and merges by :func:`_merge_fanout`.  Each shard's
        sub-batch holds its statements in batch order, a DP statement's
        inner statements in its place — the order a flat batch runs them
        in, so each shard's seed draws and dedupe behave exactly like an
        unsharded batch of that sub-stream.  Routed statements carry their
        trace and pre-resolved plan; fan-out texts carry neither.
        """
        #: shard index -> (texts, traces, plans) of its sub-batch
        subs: dict[int, tuple[list[str], list, list]] = {}
        #: per run position, in batch order: the statement a fan-out merges
        #: (``None`` when routed), each shard's window start, the window width
        jobs: list[tuple[int, object, list[tuple[int, int]], int]] = []
        for position, _spec, target in batch.admitted:
            fanout = target == ALL_SHARDS
            self.fanout_statements += fanout
            for p in batch.runs(position):
                if fanout:
                    statement = prepare(batch.texts[p]).spec.statement
                    texts = _fanout_texts(statement)
                    targets: Sequence[int] = range(len(self.shards))
                    trace = plan = None
                else:
                    statement, texts, targets = None, [batch.texts[p]], (target,)
                    trace = batch.traces[p] if batch.traces is not None else None
                    plan = batch.plans[p]
                starts = []
                for index in targets:
                    sub_texts, traces, plans = subs.setdefault(index, ([], [], []))
                    starts.append((index, len(sub_texts)))
                    sub_texts.extend(texts)
                    traces.extend([trace] * len(texts))
                    plans.extend([plan] * len(texts))
                jobs.append((p, statement, starts, len(texts)))

        def run_shard(index: int) -> "list[QueryOutcome | QueryRefused]":
            texts, traces, plans = subs[index]
            return self._settle_shard(
                index,
                texts,
                batch.issuer,
                traces if batch.traces is not None else None,
                plans,
            )

        indices = sorted(subs)
        settled = dict(zip(indices, self._on_shards(indices, run_shard)))
        results, texts = batch.results, batch.texts
        for p, statement, starts, width in jobs:
            partials: list[list[QueryOutcome]] = []
            refusal: QueryRefused | None = None
            for index, start in starts:
                window = settled[index][start : start + width]
                refused = next(
                    (r for r in window if isinstance(r, QueryRefused)), None
                )
                if refused is not None:
                    self.shard_refusals[index] += 1
                    if refusal is None:
                        refusal = QueryRefused(statement=texts[p], error=refused.error)
                    continue
                partials.append(window)  # type: ignore[arg-type]
            if refusal is not None:
                results[p] = refusal
            elif statement is None:
                results[p] = partials[0][0]
            else:
                try:
                    results[p] = _merge_fanout(statement, texts[p], partials)
                except FederationError as exc:
                    results[p] = QueryRefused(statement=texts[p], error=exc)

    # -- metrics -------------------------------------------------------------

    def shard_snapshot(self) -> dict[str, object]:
        """Deterministic counters for snapshots and the soak benchmark."""
        return {
            "shards": len(self.shards),
            "partitioned_tables": list(self.router.partitioned_tables),
            "queries_by_shard": {
                str(k): v for k, v in sorted(self.shard_queries.items())
            },
            "refusals_by_shard": {
                str(k): v for k, v in sorted(self.shard_refusals.items())
            },
            "unavailable_by_shard": {
                str(k): v for k, v in sorted(self.shard_unavailable.items())
            },
            "fanout_statements": self.fanout_statements,
            "tenants": self.router.tenant_snapshot(),
            "dp": self.dp_gate.snapshot(),
            "dp_epsilon_by_shard": {
                key: round(value, 9)
                for key, value in sorted(self.dp_spend_by_shard.items())
            },
        }


def _gather(shards: Sequence, post: Callable) -> list:
    """``post(shard)`` on every shard in order, then each returned reply call.

    A process shard writes its request frame in ``post`` and reads the reply
    only when the call is made, so every frame is on the wire before any
    reply is awaited.  Every posted reply is read even when another shard
    fails, so no shard is left mid-exchange; the first failure then raises.
    """
    replies: list[Callable[[], object]] = []
    failure: Exception | None = None
    for shard in shards:
        try:
            replies.append(post(shard))
        except Exception as exc:  # noqa: BLE001 — re-raised once all are read
            failure = exc
            break
    answers = []
    for reply in replies:
        try:
            answers.append(reply())
        except Exception as exc:  # noqa: BLE001 — re-raised once all are read
            failure = failure or exc
    if failure is not None:
        raise failure
    return answers


# -- merge ---------------------------------------------------------------------


def _fanout_texts(statement) -> list[str]:
    """The statement texts each shard answers for one fan-out statement.

    Every operation except AVG merges from per-shard answers to *the same*
    statement; AVG is the one non-decomposable aggregate — it recombines
    from per-shard SUM and COUNT (avg = Σsum / Σcount), exactly how the
    unsharded coordinator computes it from its own secure sums.
    """
    if statement.operation == "AVG":
        return [
            f"SELECT SUM({statement.attribute}) FROM {statement.table}",
            f"SELECT COUNT({statement.attribute}) FROM {statement.table}",
        ]
    return [statement.text]


def _merge_fanout(
    statement,
    statement_text: str,
    partials: "list[list[QueryOutcome]]",
) -> QueryOutcome:
    """Combine per-shard partial outcomes into the statement's answer.

    ``partials`` holds one entry per shard, in shard order, each a list of
    outcomes aligned with :func:`_fanout_texts`.  Rounds and simulated
    seconds merge as maxima (shards run in parallel); messages sum.
    """
    if not partials:
        raise FederationError(f"no shard answered {statement_text!r}")
    flat = [outcome for p in partials for outcome in p]
    return QueryOutcome(
        statement=statement_text,
        values=_merged_values(statement, [[o.values for o in p] for p in partials]),
        protocol=flat[0].protocol,
        rounds=max(o.rounds for o in flat),
        messages=sum(o.messages for o in flat),
        cached=all(o.cached for o in flat),
        simulated_seconds=max(o.simulated_seconds for o in flat),
    )


def _merged_values(
    statement, partials: "list[list[tuple[float, ...]]]"
) -> tuple[float, ...]:
    """The statement's values from per-shard partial values (one list per
    shard, aligned with :func:`_fanout_texts`)."""
    op = statement.operation
    if op == "AVG":
        total = sum(p[0][0] for p in partials)
        count = round(sum(p[1][0] for p in partials))
        if count == 0:
            raise FederationError("AVG over zero rows")
        return (float(total / count),)
    if op == "SUM":
        return (float(sum(p[0][0] for p in partials)),)
    if op == "COUNT":
        return (float(round(sum(p[0][0] for p in partials))),)
    pool = [v for p in partials for v in p[0]]
    if op in ("MAX", "TOP"):
        return tuple(sorted(pool, reverse=True)[: statement.k])
    if op in ("MIN", "BOTTOM"):
        return tuple(sorted(pool)[: statement.k])
    raise FederationError(f"cannot merge operation {op!r}")  # pragma: no cover


__all__ = ["ShardedFederation"]
