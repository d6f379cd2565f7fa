"""The federation coordinator: a session of parties answering private queries.

``Federation`` is the highest-level API of this library: register each
organization's :class:`~repro.database.PrivateDatabase`, then ask statistics
questions in the SQL-ish dialect (:meth:`Federation.execute`).  Ranking
queries (top-k/bottom-k/max/min) run the paper's probabilistic protocol;
additive aggregates (sum/count/avg) run the additive-masking secure sum.
Every execution is recorded in the audit log.

Serving paths: :meth:`Federation.execute_many` serves a *batch* —
statements are parsed and checked up front, duplicates are deduped,
repeats of already-answered statements are served from the result cache
(:mod:`repro.federation.cache`; zero protocol rounds, zero new exposure),
and the remaining ranking queries run as one batch through
:func:`repro.core.driver.run_many_on_vectors`.  Which executor runs them is
the driver's rule, not this module's: a message-free kernel when the config
is transport-free (the scalar one for the handful of misses a serving batch
carries, the vectorized one from 16 same-shape queries up), otherwise
*pipelined* sessions on one shared transport, interleaving ring tokens so
the batch completes in simulated time close to the slowest query rather
than the sum.  Every executor is bit-identical per statement, so the choice
is invisible above this module.  :meth:`Federation.execute` is a batch of
one, so a repeated statement is a cache hit there too.

The coordinator holds no data.  It sequences protocol runs, validates the
well-matched-schema precondition, and owns only public artifacts (results,
costs, the audit trail) — it is *not* the trusted third party the paper
rejects, because nothing private ever reaches it.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Iterable, Sequence
from dataclasses import replace

from ..core.driver import RunConfig, run_topk_queries
from ..core.results import ProtocolResult
from ..database.database import PrivateDatabase
from ..database.query import Domain, TopKQuery
from ..database.schema import common_query
from ..extensions.ksecuresum import run_k_secure_sum
from ..extensions.securesum import run_secure_sum
from ..observability.trace import TraceContext, Tracer
from ..planner.errors import PlanInfeasible
from ..planner.plan import Plan
from ..planner.planner import QueryPlanner
from ..planner.spec import Prepared, QuerySpec, prepare
from ..privacy.accounting import BudgetExceededError, ExposureLedger
from ..privacy.dp import BudgetExhausted, DpGate, DpPolicy
from ..privacy.lop import average_lop
from .audit import AuditLog
from .cache import CachedAnswer, CacheKey, ResultCache
from .dp_release import DpReleasePath
from .outcomes import FederationError, QueryOutcome, QueryRefused
from .sql import FederatedStatement, SqlError, parse


class Federation:
    """A registered group of private databases answering statistics queries."""

    def __init__(
        self,
        *,
        domain: Domain,
        config: RunConfig | None = None,
        seed: int | None = None,
        privacy_budget: float | None = None,
        cache_entries: int = 1024,
        tracer: "Tracer | None" = None,
        planner: "QueryPlanner | None" = None,
        dp: "DpPolicy | None" = None,
        secure_sum_segments: int = 1,
    ) -> None:
        """``privacy_budget`` caps any party's *cumulative* measured exposure
        across the session's ranking queries (see
        :mod:`repro.privacy.accounting`); queries that would breach it are
        refused.  Additive aggregates flow through mask-blinded secure sums
        and are charged nothing.  ``cache_entries`` bounds the result cache
        every statement is served through.  ``tracer`` records a distributed
        trace per executed ranking query (see :mod:`repro.observability`); callers that
        already carry a trace — the query service's batch spans — pass
        per-statement contexts to the batch methods instead.  ``planner`` resolves statements carrying
        ``WITH SLO(...)`` clauses (see :mod:`repro.planner`).  ``dp`` configures
        the differential-privacy release layer (see
        :mod:`repro.privacy.dp`): statements carrying
        ``dp_epsilon``/``dp_delta`` SLO keys release calibrated-noise
        answers charged against the gate's
        :class:`~repro.privacy.dp.PrivacyAccountant`; a finite budget there
        makes every issuer DP-governed, so statements without ``dp_epsilon``
        are refused (:class:`~repro.privacy.dp.DpRequired`).
        ``secure_sum_segments > 1`` swaps the additive aggregates onto
        the segmented/shuffled k-secure-sum
        (:mod:`repro.extensions.ksecuresum`), hardening them against
        colluding ring neighbors at ``segments``x the traffic.
        """
        self.domain = domain
        self._base_config = config or RunConfig()
        # Per-query seeds are SHA-256-derived from (session seed, draw index,
        # stream) — the parallel-harness scheme — so they are collision-free,
        # stable across processes, and identical whether statements run one
        # at a time or batched (the batch/sequential parity guarantee).
        self._session_seed = (
            seed if seed is not None else random.SystemRandom().getrandbits(64)
        )
        self._draw_index = 0
        self._parties: dict[str, PrivateDatabase] = {}
        self._attribute_domains: dict[tuple[str, str], Domain] = {}
        self._membership_epoch = 0
        #: Owners in ring order, computed once per membership epoch.
        self._members: tuple[str, ...] | None = None
        self.audit = AuditLog()
        self.ledger = ExposureLedger(budget=privacy_budget)
        self.cache = ResultCache(max_entries=cache_entries)
        self.tracer = tracer
        self.planner = planner if planner is not None else QueryPlanner()
        if secure_sum_segments < 1:
            raise FederationError(
                f"secure_sum_segments must be >= 1, got {secure_sum_segments}"
            )
        self._secure_segments = secure_sum_segments
        self.dp_gate = DpGate(dp)
        self._dp = DpReleasePath(
            self.dp_gate,
            self.domain_for,
            lambda spec: self.planner.plan(spec, parties=len(self.members)),
        )

    # -- domains ------------------------------------------------------------

    def register_domain(self, table: str, attribute: str, domain: Domain) -> None:
        """Declare the public domain of one attribute.

        Real consortia carry different value ranges per attribute (revenues
        vs. scores); the protocol's identity element and noise ranges come
        from the *attribute's* domain, falling back to the federation-wide
        default when none is declared.
        """
        self._attribute_domains[(table, attribute)] = domain

    def domain_for(self, table: str, attribute: str) -> Domain:
        return self._attribute_domains.get((table, attribute), self.domain)

    # -- membership -----------------------------------------------------------

    def register(self, database: PrivateDatabase) -> None:
        """Enroll one organization's private database.

        Membership changes invalidate the result cache: cached answers were
        computed by (and about) a different set of parties.
        """
        if database.owner in self._parties:
            raise FederationError(f"party {database.owner!r} already registered")
        self._parties[database.owner] = database
        self._membership_changed()

    def deregister(self, owner: str) -> None:
        if owner not in self._parties:
            raise FederationError(f"no such party: {owner!r}")
        del self._parties[owner]
        self._membership_changed()

    def _membership_changed(self) -> None:
        self._membership_epoch += 1
        self._members = None
        self.cache.clear()

    @property
    def members(self) -> tuple[str, ...]:
        if self._members is None:
            self._members = tuple(sorted(self._parties))
        return self._members

    def _require_quorum(self) -> list[PrivateDatabase]:
        if len(self._parties) < 3:
            raise FederationError(
                f"the protocols require n >= 3 parties; have {len(self._parties)}"
            )
        return [self._parties[name] for name in self.members]

    # -- result cache --------------------------------------------------------

    def _data_versions(self) -> tuple[tuple[str, int], ...]:
        parties = self._parties
        return tuple([(owner, parties[owner].data_version) for owner in self.members])

    def _cache_key(
        self,
        prepared: Prepared,
        data_versions: tuple[tuple[str, int], ...] | None = None,
    ) -> CacheKey:
        return CacheKey(
            statement=prepared.canonical,
            membership_epoch=self._membership_epoch,
            data_versions=(
                data_versions if data_versions is not None else self._data_versions()
            ),
        )

    # -- query API ----------------------------------------------------------------

    def execute(
        self, statement_text: str, *, issuer: str = "anonymous"
    ) -> QueryOutcome:
        """One statement as a batch of one: repeats hit the result cache.

        A repeat of an already-answered statement (same membership, same
        data) is re-served from the cache — zero protocol rounds, zero new
        exposure, one audit entry — exactly as :meth:`execute_many` serves
        it.  Statements may carry a ``WITH SLO(...)`` suffix (see
        :mod:`repro.planner`): the planner resolves it to a concrete
        protocol/parameter choice, or raises
        :class:`~repro.planner.errors.PlanInfeasible` when no
        configuration can satisfy it.
        """
        return self.execute_many([statement_text], issuer=issuer)[0]

    def try_cached(
        self, statement_text: str, *, issuer: str = "anonymous"
    ) -> QueryOutcome | None:
        """Serve a statement from the result cache, or ``None`` on a miss.

        The query service's admission fast path: a hit re-publishes the
        already-public answer immediately — audit-logged, zero protocol
        rounds, zero new exposure — without occupying a batch slot.  A miss
        returns ``None`` without counting a cache miss; the statement is
        counted when it actually executes.  A DP-governed issuer's statement
        without ``dp_epsilon`` raises :class:`~repro.privacy.dp.DpRequired`,
        hit or miss.

        SLO'd statements share the cache with their bare form: the cached
        answer is already public and costs zero rounds, zero messages, and
        zero new exposure, which satisfies any declared objective.  A DP
        statement hits only when a release already exists for its key and
        every inner answer is still cache-valid — the *same* noisy release
        is re-served, spending zero budget.
        """
        prepared = prepare(statement_text)
        self._dp.require_dp(prepared.spec, issuer)
        if prepared.has_dp:
            def count_hits(inner_texts: Sequence[str]) -> None:
                self.cache.hits += len(inner_texts)

            released = self._dp.try_cached(prepared.spec, self._peek_inner, count_hits)
            return None if released is None else self._audited(issuer, released)
        answer = self.cache.peek(self._cache_key(prepared))
        if answer is None:
            return None
        self.cache.hits += 1
        return self._serve_cached(prepared.spec.statement, issuer, answer)

    def _peek_inner(self, inner_text: str) -> CachedAnswer | None:
        """A DP statement's inner answer, if cache-valid (never executes)."""
        return self.cache.peek(self._cache_key(prepare(inner_text)))

    def execute_many(
        self,
        statements: Iterable[str],
        *,
        issuer: str = "anonymous",
        traces: "Sequence[TraceContext | None] | None" = None,
        plans: "Sequence[Plan | None] | None" = None,
    ) -> list[QueryOutcome]:
        """Serve a batch of statements: dedupe, cache, and pipeline.

        Semantics, in order:

        1. Every statement is parsed and checked *before* anything runs (a
           batch with a malformed statement, or a DP-governed issuer's
           statement without ``dp_epsilon``, does not execute at all).
        2. Statements whose canonical form was already answered — earlier in
           this batch or in a previous call, under the same membership epoch
           and data versions — are served from the result cache: zero
           protocol rounds, zero messages, zero new ledger exposure.  Hits
           are audit-logged with the ``cached`` flag.
        3. All remaining ranking queries run as one batch on the executor
           the driver's rule picks — a message-free kernel when the configs
           carry no failure injector (the default federation setup),
           else sessions *pipelined* on one shared transport, interleaving
           tokens so the batch's simulated completion time approaches the
           slowest query's rather than the sum.  Every executor is
           bit-identical per statement.  Additive aggregates run their
           secure sums.
        4. Ledger charges, audit entries and cache population happen in
           statement order, so a batch is indistinguishable — values,
           rounds, exposure — from issuing the same statements one at a
           time through :meth:`execute` under the same session seed.

        A privacy-budget refusal aborts the batch at the refusing statement
        (statements before it remain charged and audited, like a sequential
        session interrupted at the same point).  Long-running services that
        must degrade per-statement instead use
        :meth:`execute_many_settled`.

        ``plans`` optionally supplies a pre-resolved
        :class:`~repro.planner.plan.Plan` per statement (the gateway's
        cost-admission path, which may have downgraded); ``None`` entries
        fall back to planning here when the statement carries an SLO.
        """
        outcomes = self._execute_batch(
            list(statements), issuer, settle=False, traces=traces, plans=plans
        )
        return outcomes  # type: ignore[return-value]  # no refusals when raising

    def execute_many_settled(
        self,
        statements: Iterable[str],
        *,
        issuer: str = "anonymous",
        traces: "Sequence[TraceContext | None] | None" = None,
        plans: "Sequence[Plan | None] | None" = None,
    ) -> "list[QueryOutcome | QueryRefused]":
        """:meth:`execute_many`, but refusals settle per statement.

        The query service's batch hook: a statement that cannot be served —
        malformed, refused by the issuer rule or the privacy budget, or
        carrying an SLO no plan can satisfy
        (:class:`~repro.planner.errors.PlanInfeasible`) — yields a
        :class:`QueryRefused` at its position while every other statement
        in the batch is served normally.  Seed draws still happen in
        statement order for every statement that *plans* (refused
        statements never plan), so served statements stay bit-identical to
        a sequential session that skipped the same refusals.
        """
        return self._execute_batch(
            list(statements), issuer, settle=True, traces=traces, plans=plans
        )

    def _execute_batch(
        self,
        statements: list[str],
        issuer: str,
        settle: bool,
        traces: "Sequence[TraceContext | None] | None" = None,
        plans: "Sequence[Plan | None] | None" = None,
    ) -> "list[QueryOutcome | QueryRefused]":
        """Serve a batch, expanding DP statements around the exact core.

        Statements carrying ``dp_epsilon`` are rewritten to their *inner*
        (exact) statements by the shared release path
        (:mod:`repro.federation.dp_release`) and run *in place* — preserving
        statement order, so seed draws match a sequential session issuing
        the inner forms — and the noisy releases are assembled from the
        inner answers afterwards.  Malformed statements and the issuer
        rule's refusals settle there too; everything else reaches the exact
        path untouched.
        """
        batch = self._dp.expand(statements, traces, plans, issuer=issuer, settle=settle)
        order = [p for position, _, _ in batch.admitted for p in batch.runs(position)]
        served = self._serve_batch(
            [batch.texts[p] for p in order],
            issuer,
            settle,
            [batch.traces[p] for p in order] if batch.traces is not None else None,
            [batch.plans[p] for p in order],
        )
        for p, result in zip(order, served):
            batch.results[p] = result
        return self._dp.assemble(batch)

    def dp_admission_check(self, spec: QuerySpec, *, issuer: str = "anonymous") -> None:
        """Gateway hook: refuse a DP statement that can neither reuse nor pay.

        :meth:`DpReleasePath.admission_check` with no tenant meters: the
        flat federation has one shared accountant, whoever the issuer is.
        """
        self._dp.admission_check(spec, issuer=issuer)

    def _serve_batch(
        self,
        statements: list[str],
        issuer: str,
        settle: bool,
        traces: "Sequence[TraceContext | None] | None" = None,
        plans: "Sequence[Plan | None] | None" = None,
    ) -> "list[QueryOutcome | QueryRefused]":
        if not statements:
            return []
        # Every statement here is well-formed and permitted: the release path
        # settles malformed and refused ones before the exact path runs.
        refusals: dict[int, Exception] = {}
        forms = [prepare(text) for text in statements]
        parsed: list[FederatedStatement | None] = [f.spec.statement for f in forms]
        databases = self._require_quorum()
        data_versions = self._data_versions()
        keys = [self._cache_key(form, data_versions) for form in forms]

        # Plan: pick the statements that must actually execute (first
        # occurrence of each canonical form not already cached), drawing
        # their seeds in statement order — exactly the draws a sequential
        # session would make, which is what the parity guarantee rests on.
        # SLO'd statements resolve to a Plan here (or reuse the caller's);
        # a PlanInfeasible statement never draws a seed, exactly like any
        # other refusal.  Cache hits skip planning entirely: a free,
        # already-public answer satisfies any declared objective.
        planned: set[CacheKey] = set()
        # Every answer this batch serves from cache, captured here and as
        # the batch stores its own: a bounded cache may evict either kind
        # before its statement's turn in the serving loop.
        answers: dict[CacheKey, CachedAnswer] = {}
        ranking_indices: list[int] = []
        ranking_configs: dict[int, RunConfig] = {}
        additive_seeds: dict[int, tuple[int | None, int | None]] = {}
        for index, (form, key) in enumerate(zip(forms, keys)):
            if key in planned or key in answers:
                continue
            cached = self.cache.peek(key)
            if cached is not None:
                answers[key] = cached
                continue
            plan = plans[index] if plans is not None else None
            if plan is None and not form.trivial:
                try:
                    plan = self.planner.plan(form.spec, parties=len(databases))
                except PlanInfeasible as exc:
                    if not settle:
                        raise
                    refusals[index] = exc
                    parsed[index] = None
                    continue
            planned.add(key)
            statement = form.spec.statement
            if statement.is_ranking:
                config = self._next_config()
                if plan is not None and plan.params is not None:
                    config = replace(
                        config, protocol=plan.protocol, params=plan.params
                    )
                ranking_configs[index] = config
                ranking_indices.append(index)
            else:
                sum_seed = (
                    self._derive_seed("secure-sum")
                    if statement.operation in ("SUM", "AVG")
                    else None
                )
                count_seed = (
                    self._derive_seed("secure-sum")
                    if statement.operation in ("COUNT", "AVG")
                    else None
                )
                additive_seeds[index] = (sum_seed, count_seed)

        # Pipeline all ranking misses on one shared transport.
        ranking_results: dict[int, ProtocolResult] = {}
        if ranking_indices:
            ranking_traces: "list[TraceContext | None] | None"
            if traces is not None:
                ranking_traces = [traces[i] for i in ranking_indices]
            elif self.tracer is not None and self.tracer.enabled:
                # Standalone traced federation: one trace per executed
                # ranking statement (cache hits and additive aggregates run
                # no ring protocol and record no protocol spans).
                ranking_traces = [
                    self.tracer.new_trace(
                        name=statements[i], baggage={"issuer": issuer}
                    )
                    for i in ranking_indices
                ]
            else:
                ranking_traces = None
            results = run_topk_queries(
                databases,
                [self._ranking_query(parsed[i]) for i in ranking_indices],
                [ranking_configs[i] for i in ranking_indices],
                traces=ranking_traces,
            )
            ranking_results = dict(zip(ranking_indices, results))

        # Serve in statement order: charges, audit entries and cache stores
        # land exactly where a sequential session would put them.
        outcomes: list[QueryOutcome | QueryRefused] = []
        refused_keys: dict[CacheKey, Exception] = {}
        for index, (statement, key) in enumerate(zip(parsed, keys)):
            if statement is None:
                outcomes.append(
                    QueryRefused(statement=statements[index], error=refusals[index])
                )
                continue
            if index in ranking_results:
                try:
                    outcome = self._finish_ranking(
                        statement, issuer, ranking_results[index]
                    )
                except BudgetExceededError as exc:
                    if not settle:
                        raise
                    refused_keys[key] = exc
                    outcomes.append(
                        QueryRefused(statement=statements[index], error=exc)
                    )
                    continue
                self.cache.misses += 1
                answers[key] = CachedAnswer(
                    values=outcome.values, protocol=outcome.protocol
                )
                self.cache.store(key, answers[key])
            elif index in additive_seeds:
                outcome = self._run_additive(
                    statement, issuer, *additive_seeds[index]
                )
                self.cache.misses += 1
                answers[key] = CachedAnswer(
                    values=outcome.values, protocol=outcome.protocol
                )
                self.cache.store(key, answers[key])
            else:
                answer = answers.get(key)
                if answer is None:
                    # A duplicate of a statement whose execution was refused
                    # in this very batch (only a settling batch gets this
                    # far): settle it with the same error.
                    self.cache.misses += 1
                    outcomes.append(
                        QueryRefused(
                            statement=statements[index], error=refused_keys[key]
                        )
                    )
                    continue
                self.cache.hits += 1
                outcome = self._serve_cached(statement, issuer, answer)
            outcomes.append(outcome)
        return outcomes

    # -- execution ---------------------------------------------------------------

    def _derive_seed(self, stream: str) -> int:
        """SHA-256-derived 64-bit seed for the next randomized step.

        Mirrors :meth:`repro.experiments.config.TrialSetup._derived_seed`:
        built with :mod:`hashlib` rather than ``hash()`` (randomized per
        interpreter) or modular arithmetic (collision-prone), so sessions
        reproduce across processes and distinct draws never collide.  The
        draw index advances on every derivation, which keeps repeated
        *executions* of the same statement on fresh randomness (an observer
        must not be able to difference out the noise).
        """
        material = f"{self._session_seed}:{self._draw_index}:{stream}".encode()
        self._draw_index += 1
        return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")

    def _next_config(self) -> RunConfig:
        # Fresh seed per query so repeated queries do not replay identical
        # randomness (which would let an observer difference-out the noise).
        return replace(self._base_config, seed=self._derive_seed("query"))

    def _ranking_query(self, statement: FederatedStatement) -> TopKQuery:
        return TopKQuery(
            table=statement.table,
            attribute=statement.attribute,
            k=statement.k,
            domain=self.domain_for(statement.table, statement.attribute),
            smallest=statement.smallest,
        )

    def _finish_ranking(
        self, statement: FederatedStatement, issuer: str, result: ProtocolResult
    ) -> QueryOutcome:
        # Charge the session ledger first: a budget refusal must leave no
        # trace in the audit log and return nothing to the issuer.
        self.ledger.charge(result)
        outcome = QueryOutcome(
            statement=statement.text,
            values=tuple(result.answer()),
            protocol=result.protocol,
            rounds=result.rounds_executed,
            messages=result.stats.messages_total,
            simulated_seconds=result.simulated_seconds,
            average_lop=average_lop(result),
        )
        return self._audited(issuer, outcome)

    def _serve_cached(
        self, statement: FederatedStatement, issuer: str, answer: CachedAnswer
    ) -> QueryOutcome:
        """Re-publish an already-public answer: no protocol, no new exposure.

        Every hit is audited on its own; the frozen outcome is built on a
        spelling's first hit and shared by the later ones.
        """
        outcome = answer.served.get(statement.text)
        if outcome is None:
            outcome = answer.served[statement.text] = QueryOutcome(
                statement=statement.text,
                values=answer.values,
                protocol=answer.protocol,
                rounds=0,
                messages=0,
                cached=True,
            )
        return self._audited(issuer, outcome)

    def _audited(self, issuer: str, outcome: QueryOutcome) -> QueryOutcome:
        """Record ``outcome`` and its ``average_lop`` in the audit log and
        hand it back."""
        self.audit.record(issuer, self.members, outcome, outcome.average_lop)
        return outcome

    def _local_aggregate(
        self, db: PrivateDatabase, statement: FederatedStatement
    ) -> float:
        table = db.table(statement.table)
        if statement.operation == "COUNT":
            # count = non-null values of the attribute, engine-accelerated.
            return float(table.aggregate(statement.attribute, "count"))
        value = table.aggregate(statement.attribute, "sum")
        return float(value) if value is not None else 0.0

    def _secure_sum(self, values: dict[str, float], seed: int | None):
        """Run the configured additive primitive: plain or segmented ring sum.

        Both results duck-type ``.total`` and ``.stats.messages_total``,
        which is all the additive path consumes.
        """
        if self._secure_segments > 1:
            return run_k_secure_sum(
                values, segments=self._secure_segments, seed=seed
            )
        return run_secure_sum(values, seed=seed)

    def _run_additive(
        self,
        statement: FederatedStatement,
        issuer: str,
        sum_seed: int | None,
        count_seed: int | None,
    ) -> QueryOutcome:
        """Run a SUM/COUNT/AVG statement over mask-blinded secure sums.

        ``sum_seed``/``count_seed`` are the secure sums' randomness, drawn
        by the batch path in statement order (the parity guarantee).
        """
        databases = self._require_quorum()
        # Schema precondition applies to additive queries too.
        common_query(
            databases,
            TopKQuery(
                table=statement.table,
                attribute=statement.attribute,
                k=1,
                domain=self.domain_for(statement.table, statement.attribute),
            ),
        )
        messages = 0
        sums: dict[str, float] = {}
        counts: dict[str, float] = {}
        for db in databases:
            sums[db.owner] = self._local_aggregate(
                db, replace_operation(statement, "SUM")
            )
            counts[db.owner] = self._local_aggregate(
                db, replace_operation(statement, "COUNT")
            )
        if statement.operation in ("SUM", "AVG"):
            sum_outcome = self._secure_sum(sums, sum_seed)
            messages += sum_outcome.stats.messages_total
        if statement.operation in ("COUNT", "AVG"):
            count_outcome = self._secure_sum(counts, count_seed)
            messages += count_outcome.stats.messages_total

        if statement.operation == "SUM":
            value = sum_outcome.total
        elif statement.operation == "COUNT":
            value = round(count_outcome.total)
        else:  # AVG
            total_count = round(count_outcome.total)
            if total_count == 0:
                raise FederationError("AVG over zero rows")
            value = sum_outcome.total / total_count

        protocol = (
            "k-secure-sum" if self._secure_segments > 1 else "secure-sum"
        )
        rounds = self._secure_segments if self._secure_segments > 1 else 1
        outcome = QueryOutcome(
            statement=statement.text,
            values=(float(value),),
            protocol=protocol,
            rounds=rounds,
            messages=messages,
        )
        return self._audited(issuer, outcome)


def replace_operation(
    statement: FederatedStatement, operation: str
) -> FederatedStatement:
    """A copy of ``statement`` with a different operation (internal helper)."""
    return FederatedStatement(
        operation=operation,
        k=statement.k,
        attribute=statement.attribute,
        table=statement.table,
        text=statement.text,
    )


__all__ = [
    "BudgetExhausted",
    "DpPolicy",
    "Federation",
    "FederationError",
    "PlanInfeasible",
    "QueryOutcome",
    "QueryRefused",
    "SqlError",
    "parse",
]
