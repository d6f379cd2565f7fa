"""The federation coordinator: a session of parties answering private queries.

``Federation`` is the highest-level API of this library: register each
organization's :class:`~repro.database.PrivateDatabase`, then ask statistics
questions in the SQL-ish dialect (:meth:`Federation.execute`).  Ranking
queries (top-k/bottom-k/max/min) run the paper's probabilistic protocol;
additive aggregates (sum/count/avg) run the additive-masking secure sum.
Every execution is recorded in the audit log.

Serving paths: :meth:`Federation.execute_many_settled` serves a *batch* —
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
is invisible above this module.  Every refusal settles at its statement's
position; :meth:`Federation.execute` is a batch of one that raises what it
settled, so a repeated statement is a cache hit there too.

The coordinator holds no data.  It sequences protocol runs, resolves each
statement against the quorum and the well-matched-schema precondition before
anything else, and owns only public artifacts (results,
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
from ..database.schema import SchemaError, common_query
from ..extensions.ksecuresum import run_k_secure_sum
from ..extensions.securesum import run_secure_sum
from ..observability.trace import TraceContext
from ..planner.cost import SECURE_SUM
from ..planner.errors import PlanInfeasible
from ..planner.plan import QUALITY, Plan, expected_lop, plan_or_refusal
from ..planner.planner import QueryPlanner
from ..planner.spec import Prepared, QuerySpec, prepare
from ..privacy.accounting import ExposureLedger
from ..privacy.dp import BudgetExhausted, DpGate, DpPolicy, Draw
from ..privacy.lop import average_lop
from .audit import AuditLog
from .cache import CachedAnswer, CacheKey, ResultCache
from .dp_release import DpReleasePath
from .outcomes import FederationError, QueryOutcome, QueryRefused
from .sql import FederatedStatement, SqlError, parse

#: The additive path's protocol names: the ring secure sum, then segmented.
SECURE_SUM_PROTOCOLS = (SECURE_SUM, f"k-{SECURE_SUM}")


def resolve(databases: Sequence, statement: FederatedStatement) -> Exception | None:
    """Why ``statement`` cannot run over ``databases`` at all, or ``None``.

    Decided on public metadata only: the quorum (n >= 3), then the
    well-matched-schema precondition of Section 3.2 over the parties in ring
    order (:func:`~repro.database.schema.common_query`, which reads only
    ``db.owner`` and ``db.table(name).schema``, so a shard's kept schemas
    answer it too).  The refusal is returned, never raised, so a batch
    settles it at its statement's position before anything is planned,
    admitted or drawn.
    """
    if len(databases) < 3:
        return FederationError(
            f"the protocols require n >= 3 parties; have {len(databases)}"
        )
    try:
        common_query(
            databases, TopKQuery(statement.table, statement.attribute, statement.k)
        )
    except SchemaError as exc:
        return exc
    return None


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
        planner: "QueryPlanner | None" = None,
        dp: "DpPolicy | None" = None,
        secure_sum_segments: int = 1,
    ) -> None:
        """``privacy_budget`` caps any party's *cumulative expected* LoP
        across the session's ranking queries (see
        :mod:`repro.privacy.accounting`): a statement is admitted before its
        ring runs only if its plan's expected LoP fits every member's meter,
        which the run then charges; each party's measured exposure is
        recorded apart and may end past the budget.  Additive aggregates flow through
        mask-blinded secure sums and are charged nothing.
        ``cache_entries`` bounds the result cache every statement is served
        through.  Per-statement traces arrive with
        the batch (``traces=``, the query service's batch spans; see
        :mod:`repro.observability`).  ``planner``
        resolves statements carrying ``WITH SLO(...)`` clauses (see
        :mod:`repro.planner`), through :meth:`plan_for` only.  ``dp`` configures
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
        #: The configuration a statement without objectives runs on.
        self.config = config or RunConfig()
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
        self.planner = planner if planner is not None else QueryPlanner()
        if secure_sum_segments < 1:
            raise FederationError(
                f"secure_sum_segments must be >= 1, got {secure_sum_segments}"
            )
        self._secure_segments = secure_sum_segments
        self.dp_gate = DpGate(dp)
        self._dp = DpReleasePath(self.dp_gate, self.domain_for)

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

    def _ring(self) -> list[PrivateDatabase]:
        """The members' databases in ring order."""
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

    # -- the plan stage -------------------------------------------------------------

    def plan_for(self, spec: QuerySpec, mode: str = QUALITY) -> Plan:
        """The one plan ``spec`` runs on in this federation.

        The serving path's only planner call: the gateway's cost admission
        and downgrade, DP expansion and the batch body all ask here, over
        ``len(members)`` parties.  A statement without objectives is not
        chosen for in quality mode: its plan is :attr:`config`, the
        configuration it runs on, with the cost model's estimate.
        """
        return self.planner.plan(
            spec, parties=len(self.members), mode=mode, base=self.config
        )

    # -- query API ----------------------------------------------------------------

    def execute(
        self, statement_text: str, *, issuer: str = "anonymous"
    ) -> QueryOutcome:
        """One statement as a batch of one: repeats hit the result cache.

        A repeat of an already-answered statement (same membership, same
        data) is re-served from the cache — zero protocol rounds, zero new
        exposure, one audit entry — exactly as :meth:`execute_many_settled`
        serves it.  A refusal is raised as its typed error (the
        :class:`QueryRefused` ``error`` its batch of one settled), e.g.
        :class:`~repro.planner.errors.PlanInfeasible` for a ``WITH SLO(...)``
        suffix no configuration can satisfy.
        """
        (result,) = self.execute_many_settled([statement_text], issuer=issuer)
        if isinstance(result, QueryRefused):
            raise result.error
        return result

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

            released = self._dp.try_cached(prepared.spec, self._peek, count_hits)
            return None if released is None else self._audited(issuer, released)
        answer = self.cache.peek(self._cache_key(prepared))
        if answer is None:
            return None
        self.cache.hits += 1
        return self._serve_cached(prepared.spec.statement, issuer, answer)

    def _peek(self, statement_text: str) -> CachedAnswer | None:
        """A statement's cache-valid answer, or ``None`` (never executes); a
        DP statement's is its one inner statement's."""
        return self.cache.peek(self._cache_key(prepare(statement_text)))

    def execute_many_settled(
        self,
        statements: Iterable[str],
        *,
        issuer: str = "anonymous",
        traces: "Sequence[TraceContext | None] | None" = None,
        modes: "Sequence[str] | None" = None,
    ) -> "list[QueryOutcome | QueryRefused]":
        """Serve a batch of statements: dedupe, cache, and pipeline.

        Semantics, in order:

        1. Every statement is parsed and checked *before* anything runs.
           The first check is the *resolve* step (:func:`resolve`), on
           public metadata only: a statement refuses with
           :class:`FederationError` below the quorum of three parties, and
           with :class:`~repro.database.schema.SchemaError` over a missing
           table or attribute, a non-numeric attribute, or a table whose
           schema differs between members.  Then come its plan, its
           admission by every budget it draws from (each party's LoP,
           then (epsilon, delta)), the cache and the run.
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

        A statement that cannot be served — malformed, refused by the issuer
        rule, by the resolve step or by a budget, carrying an SLO no plan
        can satisfy (:class:`~repro.planner.errors.PlanInfeasible`, unless
        its answer is public by its turn:
        :func:`~repro.planner.plan.plan_or_refusal`), or an AVG over zero
        rows — yields a :class:`QueryRefused` at its position (its in-batch
        duplicates too) while every other statement is served normally.
        All but the last refuse before any seed is drawn, so served
        statements stay bit-identical to a sequential session that skipped
        the same refusals.  Every statement is planned here, by
        :meth:`plan_for`.

        ``modes`` optionally names each statement's planner objective (the
        gateway's economy downgrade), quality unless its entry says
        otherwise.
        """
        return self._execute_batch(
            list(statements), issuer, traces=traces, modes=modes
        )

    def _execute_batch(
        self,
        statements: list[str],
        issuer: str,
        traces: "Sequence[TraceContext | None] | None" = None,
        modes: "Sequence[str] | None" = None,
        plans: "Sequence[Plan | None] | None" = None,
    ) -> "list[QueryOutcome | QueryRefused]":
        """Serve a batch, expanding DP statements around the exact core.

        Statements carrying ``dp_epsilon`` are rewritten to their *inner*
        (exact) statements by the shared release path
        (:mod:`repro.federation.dp_release`) and run *in place* — preserving
        statement order, so seed draws match a sequential session issuing
        the inner forms — and the noisy releases are assembled from the
        inner answers afterwards.  Malformed statements and the issuer
        rule's, the resolve step's (:func:`resolve`), the plan's and every
        budget's refusals settle there too; everything else reaches the
        exact path untouched.

        Each run's plan is made in the precheck, by :meth:`plan_for` under
        :func:`~repro.planner.plan.plan_or_refusal` -- a DP statement's one
        inner statement runs the DP statement's plan, a decomposed release's
        statements none -- unless the batch arrives over the shard boundary
        with ``plans`` (a shard runs the plan it is handed; ``None`` is its
        base configuration).  With a ``privacy_budget``, a ranking statement
        that will run draws its plan's expected LoP from every member's meter
        there too, and the release path charges those draws once it ran, so
        everything but an AVG over zero rows refuses before any seed is drawn.
        """

        def precheck(position: int, spec: QuerySpec, mode: str, forms: set):
            error = resolve(self._ring(), spec.statement)
            if error is not None:
                return error
            plan = plans[position] if plans is not None else plan_or_refusal(
                spec, mode, self.plan_for, forms, self._peek
            )
            if isinstance(plan, PlanInfeasible):
                return plan
            # A statement whose (inner) answer is cache-valid will not run
            # and draws nothing.
            draws: list[Draw] = []
            ranks = spec.statement.is_ranking and self.ledger.budget is not None
            if ranks and self._peek(spec.text) is None:
                lop = expected_lop(spec, plan, self.plan_for)
                key = prepare(spec.text).canonical
                draws = [(self.ledger.meter(p), lop, key) for p in self.members]
            return plan, draws

        batch = self._dp.expand(
            statements, traces, modes, issuer=issuer, precheck=precheck
        )
        order: list[int] = []
        chosen: "list[Plan | None]" = []
        for position, _, plan in batch.admitted:
            runs = batch.runs(position)
            order += runs
            chosen += [plan if len(runs) == 1 else None] * len(runs)
        served = self._serve_batch(
            [batch.texts[p] for p in order],
            issuer,
            [batch.traces[p] for p in order] if batch.traces is not None else None,
            chosen,
        )
        for p, result in zip(order, served):
            batch.results[p] = result
        return self._dp.assemble(batch)

    def _serve_batch(
        self,
        statements: list[str],
        issuer: str,
        traces: "Sequence[TraceContext | None] | None",
        plans: "list[Plan | None]",
    ) -> "list[QueryOutcome | QueryRefused]":
        if not statements:
            return []
        # Every statement here is admitted: resolved, planned and drawn from
        # every budget by the precheck, and charged by the release path.
        # Only an AVG over zero rows, which a run alone can know, still
        # refuses.
        forms = [prepare(text) for text in statements]
        databases = self._ring()
        data_versions = self._data_versions()
        keys = [self._cache_key(form, data_versions) for form in forms]

        # Pick the statements that must actually execute (first occurrence
        # of each canonical form not already cached), drawing their seeds in
        # statement order — exactly the draws a sequential session would
        # make, which is what the parity guarantee rests on.  A hit runs
        # nothing, whatever its plan.
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
            planned.add(key)
            statement = form.spec.statement
            if statement.is_ranking:
                config = self._next_config()
                plan = plans[index]
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
            results = run_topk_queries(
                databases,
                [self._ranking_query(forms[i].spec.statement) for i in ranking_indices],
                [ranking_configs[i] for i in ranking_indices],
                traces=(
                    [traces[i] for i in ranking_indices]
                    if traces is not None
                    else None
                ),
            )
            ranking_results = dict(zip(ranking_indices, results))

        # Serve in statement order: charges, audit entries and cache stores
        # land exactly where a sequential session would put them.
        outcomes: list[QueryOutcome | QueryRefused] = []
        refused_keys: dict[CacheKey, Exception] = {}
        for index, (form, key) in enumerate(zip(forms, keys)):
            statement = form.spec.statement
            if index in ranking_results:
                # Record each party's measured exposure.
                result = ranking_results[index]
                self.ledger.charge(result)
                outcome = self._finish_ranking(statement, issuer, result)
            elif index in additive_seeds:
                try:
                    outcome = self._run_additive(
                        statement, issuer, databases, *additive_seeds[index]
                    )
                except FederationError as exc:
                    # An AVG over zero rows: it and its duplicates below
                    # settle refused.
                    refused_keys[key] = exc
                    outcomes.append(
                        QueryRefused(statement=statements[index], error=exc)
                    )
                    continue
            else:
                answer = answers.get(key)
                if answer is None:
                    # A duplicate of a statement whose execution was refused
                    # in this very batch: settle it with the same error.
                    self.cache.misses += 1
                    outcomes.append(
                        QueryRefused(
                            statement=statements[index], error=refused_keys[key]
                        )
                    )
                    continue
                self.cache.hits += 1
                outcomes.append(self._serve_cached(statement, issuer, answer))
                continue
            self.cache.misses += 1
            answers[key] = CachedAnswer(outcome.values, outcome.protocol)
            self.cache.store(key, answers[key])
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
        return replace(self.config, seed=self._derive_seed("query"))

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
        self, db: PrivateDatabase, statement: FederatedStatement, how: str
    ) -> float:
        """One party's ``"sum"`` or ``"count"`` (of non-null values) of the
        statement's attribute, engine-accelerated; an empty sum is 0."""
        value = db.table(statement.table).aggregate(statement.attribute, how)
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
        databases: list[PrivateDatabase],
        sum_seed: int | None,
        count_seed: int | None,
    ) -> QueryOutcome:
        """Run a resolved SUM/COUNT/AVG statement over mask-blinded secure sums.

        ``sum_seed``/``count_seed`` are the secure sums' randomness, drawn
        by the batch path in statement order (the parity guarantee).
        """
        messages = 0
        sums, counts = (
            {db.owner: self._local_aggregate(db, statement, how) for db in databases}
            for how in ("sum", "count")
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

        protocol = SECURE_SUM_PROTOCOLS[self._secure_segments > 1]
        rounds = self._secure_segments if self._secure_segments > 1 else 1
        outcome = QueryOutcome(
            statement=statement.text,
            values=(float(value),),
            protocol=protocol,
            rounds=rounds,
            messages=messages,
        )
        return self._audited(issuer, outcome)


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
    "resolve",
]
