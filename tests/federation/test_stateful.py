"""Stateful property test: a federation session behaves like its model.

Hypothesis drives random sequences of registrations, deregistrations, row
inserts, queries, cache repeats and drops, DP releases, refusals and
restarts; a plain-Python model of the pooled data predicts every answer, and
the machine's list of served outcomes is the audit log.  A DP release is a
function of (statement, exact inner answer): the model keeps the bytes each
pair released, and every later release of the pair — cached, re-executed or
after a restart — must match them.

Flat is the one-shard case: a ``ShardedFederation`` over one local shard,
holding its own copies of the rows under the same seeds, is stepped in
lock-step and must serve equal outcomes (answer, costs and the ring's
average LoP), compose the same (epsilon, delta) ledger and count the same
cache hits and misses.  The twin's tenant ``gov`` holds an epsilon budget, so
it is DP-governed: it gets DP releases only, and its plain statements are
refused before any book moves.  On both, a spelling hit again with an
unchanged answer is its last hit's very object.

The twin's tenant ``meter`` holds an LoP budget.  It is charged the cost
model's estimate of the configuration each of its ranking statements runs
on -- the base configuration for a plain statement, the statement's plan
otherwise -- and only when one runs: a hit and a refusal charge nothing, and
a statement whose charge would overshoot what is left (``SpendMeter``'s
test) is refused as ``BudgetExhausted``.  A batch of its statements is
admitted as the same statements sent one at a time would be.  So is a batch
holding a statement whose SLO no plan meets beside its plain form: it is
served only an answer public by its turn.  The twin's tenant ``thrifty``
holds a small epsilon budget that runs out part way through a session: a
fresh release it cannot pay for is refused by the batch's one admission
before anything runs, and its epsilon spent is the sum of its charged
releases.

Both result caches hold :data:`CACHE_ENTRIES` answers, fewer than a session
asks for, so eviction is stepped too: the model keeps the cache's
first-in-first-out order of stored keys and predicts from it whether each
plain statement hits and whether a DP release's inner statement runs.
"""

import random

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core.driver import RunConfig
from repro.core.params import ProtocolParams
from repro.core.schedule import ExponentialSchedule
from repro.database.database import database_from_values
from repro.database.query import PAPER_DOMAIN
from repro.database.schema import SchemaError
from repro.federation import Federation, FederationError, QueryRefused, SqlError
from repro.planner import CostModel, PlanInfeasible, QueryPlanner, parse_spec
from repro.privacy.dp import BudgetExhausted, DpPolicy, DpRequired, SpendMeter
from repro.sharding import ShardedFederation, ShardRouter, TenantPolicy
from repro.sharding.shards import LocalShard

NAMES = [f"org{i}" for i in range(6)]
#: The model predicts *exact* answers, so no party may randomise (p0 = 0).
#: Under the default schedule a ring converges only with the probability of
#: Eq. 3, and hypothesis eventually draws a session where one does not: TOP 4
#: over (118, 162), (160, 162, 162, 162), (162) once came back as
#: (162, 162, 161, 161).
EXACT = RunConfig(
    params=ProtocolParams(schedule=ExponentialSchedule(p0=0.0), rounds=4)
)
#: Result-cache capacity of both federations: below the seven statements the
#: rules serve (TOP 1..4, SUM, MIN, AVG, and COUNT inside a DP release), so
#: stores evict.
CACHE_ENTRIES = 4
#: The twin's DP-governed tenant: its budget never runs out within a session,
#: so its DP releases stay in lock-step with the flat federation's.
GOVERNED = TenantPolicy(rate=1.0, burst=1000, dp_epsilon_budget=100.0)
#: The twin's tenant whose epsilon budget (drawn per session from
#: :data:`THRIFTY_BUDGETS`) runs out part way through.
THRIFTY = "thrifty"
THRIFTY_BUDGETS = [0.5, 1.0]
#: A table the twin's router fans out.  It holds no rows: the issuer rule
#: refuses before routing, so only a refused statement ever names it.
FANOUT = "wide"
#: Plain statements a governed issuer may try: routed ones whose answer a DP
#: release caches (TOP 2, SUM, COUNT) or not, and fan-outs.
GOVERNED_PLAIN = [
    "SELECT TOP 2 value FROM data",
    "SELECT SUM(value) FROM data",
    "SELECT COUNT(value) FROM data",
    "SELECT MAX(value) FROM data",
    f"SELECT AVG(value) FROM {FANOUT}",
    f"SELECT TOP 1 value FROM {FANOUT}",
]
#: The LoP-metered tenant's objectives: none (the base configuration runs),
#: or one its plan must meet.  Both objectives plan a randomised schedule.
METERED_SLOS = ["", " WITH SLO(max_rounds=6)", " WITH SLO(max_lop=0.5)"]
#: Statements over a missing table or attribute, ranking and additive, that a
#: batch serves beside a valid TOP k.
MISSING = [
    "SELECT TOP {k} value FROM nowhere",
    "SELECT TOP {k} nothing FROM data",
    "SELECT SUM(value) FROM nowhere",
    "SELECT AVG(nothing) FROM data",
]


def assert_within_guarantee(values: tuple, exact: tuple) -> None:
    """What a randomised schedule guarantees of a TOP k answer (Eq. 3 bounds
    only its expected precision): k values, sorted, none above the true
    value at its rank."""
    assert len(values) == len(exact)
    assert list(values) == sorted(values, reverse=True)
    assert all(got <= want for got, want in zip(values, exact))


class FederationMachine(RuleBasedStateMachine):
    @initialize(
        founders=st.lists(
            st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=6),
            min_size=3,
            max_size=3,
        ),
        meter_budget=st.sampled_from([0.25, 0.5, 1.0]),
        thrifty_budget=st.sampled_from(THRIFTY_BUDGETS),
    )
    def setup(
        self, founders: list[list[int]], meter_budget: float, thrifty_budget: float
    ) -> None:
        self._counter = 0
        self._meter_budget = meter_budget
        self._thrifty_budget = thrifty_budget
        self.model: dict[str, list[int]] = {}
        #: (statement, exact inner answer) -> the DP bytes it released.
        self.released: dict[tuple, tuple] = {}
        #: (statement, exact inner answer, bytes) per DP release, in order.
        self.releases: list[tuple] = []
        self._start()
        # Start at quorum, so every query rule can fire from the first step.
        for values in founders:
            self.register(NAMES[0], values)

    def _start(self) -> None:
        """A fresh federation and its one-shard twin from the machine's fixed
        seeds, and their books."""
        self.federation = Federation(
            domain=PAPER_DOMAIN, config=EXACT, seed=99, dp=DpPolicy(seed=5),
            cache_entries=CACHE_ENTRIES,
        )
        shard = Federation(
            domain=PAPER_DOMAIN, config=EXACT, seed=99, cache_entries=CACHE_ENTRIES
        )
        self.twin = ShardedFederation(
            [LocalShard(shard)],
            router=ShardRouter(1, partitioned=(FANOUT,)),
            dp=DpPolicy(seed=5),
            domain=PAPER_DOMAIN,
        )
        self.twin.set_tenant("gov", GOVERNED)
        self.twin.set_tenant("meter", TenantPolicy(lop_budget=self._meter_budget))
        self.twin.set_tenant(
            THRIFTY, TenantPolicy(dp_epsilon_budget=self._thrifty_budget)
        )
        self.databases: dict = {}
        self.twin_databases: dict = {}
        #: The keys both result caches hold, oldest first: (statement, the
        #: data generation it was stored under).
        self.entries: list[tuple[str, int]] = []
        #: Bumped by every change that moves the parties' data versions.
        self.generation = 0
        #: The audit entry each served statement must leave, in serve order.
        self.served: list[tuple] = []
        #: What each federation served, in serve order, and to whom.
        self.outcomes: list = []
        self.twin_outcomes: list = []
        self.issuers: list[str] = []
        #: statement -> the inner answer its latest charged release perturbed.
        self.latest: dict[str, tuple] = {}
        #: DP statement -> its operation.
        self.operations: dict[str, str] = {}
        self.charged_epsilon = 0.0
        self.charged = 0
        self.free_serves = 0
        self.last_spent = 0.0
        #: Spelling -> its last hit, flat and twin, while no membership change,
        #: insert or cache drop since could have moved its answer.
        self.last_hits: dict[str, tuple] = {}
        #: (hit, the spelling's last hit) pairs that must be one object.
        self.repeat_hits: list[tuple] = []
        #: The ``meter`` tenant's LoP budget on the twin and the estimates of
        #: what its statements ran.
        self.meter_budget = self._meter_budget
        self.meter_charges: list[float] = []
        #: The epsilon of each release the ``thrifty`` tenant was charged.
        self.thrifty_charges: list[float] = []

    def _join(self, name: str, values: list[int]) -> None:
        database = database_from_values(name, values)
        self.federation.register(database)
        self.databases[name] = database
        self.twin_databases[name] = database_from_values(name, values)
        self.twin.register(self.twin_databases[name], shard=0)
        self.model[name] = list(values)
        self._invalidate()

    def _invalidate(self, *, drop: bool = True) -> None:
        """Every cached answer may have moved: an insert leaves the stale
        entries in place, a membership change or a drop clears them."""
        self.generation += 1
        if drop:
            self.entries.clear()
        self.last_hits.clear()

    def _stored(self, statement: str) -> None:
        """An execution of ``statement`` stored its answer, first in first out."""
        key = (statement, self.generation)
        if key not in self.entries:
            if len(self.entries) >= CACHE_ENTRIES:
                del self.entries[0]
            self.entries.append(key)
        # The spelling's entry is a new one: so is its next hit.
        self.last_hits.pop(statement, None)

    def _cached(self, statement: str) -> bool:
        return (statement, self.generation) in self.entries

    def _note_hits(self, text: str, outcome, twin) -> None:
        """Record a hit against the spelling's last one, flat and twin."""
        if not outcome.cached:
            return
        last = self.last_hits.get(text)
        if last is not None and last[0] == outcome:
            self.repeat_hits += [(outcome, last[0]), (twin, last[1])]
        self.last_hits[text] = (outcome, twin)

    def _execute(
        self, text: str, issuer: str = "anonymous", spelling=None, beside=None
    ):
        """Serve ``text`` on both federations; the flat outcome.  A hit is
        shared per ``spelling`` (default: the text itself).  ``beside`` is a
        statement over a missing table or attribute that goes first in the
        same batch: it refuses ``SchemaError`` on both, and only itself."""
        if beside is None:
            outcome = self.federation.execute(text, issuer=issuer)
            twin = self.twin.execute(text, issuer=issuer)
        else:
            refused, outcome = self.federation.execute_many_settled(
                [beside, text], issuer=issuer
            )
            twin_refused, twin = self.twin.execute_many_settled(
                [beside, text], issuer=issuer
            )
            for result in (refused, twin_refused):
                assert isinstance(result, QueryRefused)
                assert type(result.error) is SchemaError
        self.outcomes.append(outcome)
        self.twin_outcomes.append(twin)
        self.issuers.append(issuer)
        self._note_hits(spelling or text, outcome, twin)
        return outcome

    def _serve(
        self, text: str, issuer: str = "anonymous", bare: str | None = None,
        beside: str | None = None,
    ):
        """Serve ``text``, whose cache key and spelling are ``bare`` (the
        statement without its SLO clause, default: the text itself), after
        ``beside`` in its batch if given (see :meth:`_execute`)."""
        bare = bare or text
        members = self.federation.members
        hit = self._cached(bare)
        outcome = self._execute(text, issuer=issuer, spelling=bare, beside=beside)
        # A hit exactly when the model's cache still holds the key.
        assert outcome.cached == hit
        if not hit:
            self._stored(bare)
        self.served.append(
            (issuer, members, outcome.statement, outcome.protocol, outcome.rounds,
             outcome.messages, outcome.values, outcome.cached)
        )
        return outcome

    # -- membership ------------------------------------------------------------

    @rule(
        name=st.sampled_from(NAMES),
        values=st.lists(
            st.integers(min_value=1, max_value=10_000), min_size=1, max_size=6
        ),
    )
    def register(self, name: str, values: list[int]) -> None:
        self._counter += 1
        self._join(f"{name}-{self._counter}", values)

    @precondition(lambda self: len(self.model) > 0)
    @rule(pick=st.randoms(use_true_random=False))
    def deregister(self, pick: random.Random) -> None:
        name = pick.choice(sorted(self.model))
        self.federation.deregister(name)
        self.twin.deregister(name, shard=0)
        del self.model[name], self.databases[name], self.twin_databases[name]
        self._invalidate()

    @precondition(lambda self: len(self.model) > 0)
    @rule(pick=st.randoms(use_true_random=False), value=st.integers(1, 10_000))
    def insert_row(self, pick: random.Random, value: int) -> None:
        name = pick.choice(sorted(self.model))
        self.databases[name].insert("data", {"value": value})
        self.twin_databases[name].insert("data", {"value": value})
        self.model[name].append(value)
        self._invalidate(drop=False)

    @rule()
    def invalidate_cache(self) -> None:
        self.federation.cache.clear()
        self.twin.shards[0].federation.cache.clear()
        self._invalidate()

    @rule()
    def restart(self) -> None:
        """A twin built from the same seeds over the model's current data."""
        self._start()
        for name, values in self.model.items():
            self._join(name, values)

    # -- queries ------------------------------------------------------------------

    def _pooled(self) -> list[int]:
        return [v for vs in self.model.values() for v in vs]

    def _top(self, k: int) -> tuple[float, ...]:
        pooled = sorted(self._pooled(), reverse=True)[:k]
        padded = pooled + [int(PAPER_DOMAIN.low)] * (k - len(pooled))
        return tuple(float(v) for v in padded)

    @precondition(lambda self: len(self.model) >= 3)
    @rule(k=st.integers(min_value=1, max_value=4))
    def topk_matches_model(self, k: int) -> None:
        outcome = self._serve(f"SELECT TOP {k} value FROM data")
        assert outcome.values == self._top(k)

    @precondition(lambda self: len(self.model) >= 3)
    @rule()
    def sum_matches_model(self) -> None:
        outcome = self._serve("SELECT SUM(value) FROM data")
        assert outcome.values == (sum(self._pooled()),)

    @precondition(lambda self: len(self.model) >= 3)
    @rule()
    def min_matches_model(self) -> None:
        outcome = self._serve("SELECT MIN(value) FROM data")
        assert outcome.values == (min(self._pooled()),)

    @precondition(lambda self: len(self.model) >= 3)
    @rule()
    def avg_matches_model(self) -> None:
        outcome = self._serve("SELECT AVG(value) FROM data")
        pooled = self._pooled()
        assert outcome.values == (sum(pooled) / len(pooled),)

    @precondition(lambda self: len(self.model) >= 3)
    @rule(k=st.integers(min_value=1, max_value=2), issuer=st.sampled_from(["ann", "bo"]))
    def repeat_through_the_cache(self, k: int, issuer: str) -> None:
        # The first ask of a form under this membership executes; repeats hit.
        for _ in range(2):
            self._serve(f"SELECT TOP {k} value FROM data", issuer=issuer)

    @precondition(lambda self: len(self.model) >= 3)
    @rule(
        operation=st.sampled_from(["SUM", "COUNT", "TOP"]),
        epsilon=st.sampled_from([0.25, 1.0]),
        issuer=st.sampled_from(["anonymous", "gov"]),
    )
    def dp_release_is_keyed_by_its_answer(
        self, operation: str, epsilon: float, issuer: str
    ) -> None:
        # Six statements in all, so a session repeats some across the cache
        # drops, inserts and restarts between them.
        self._release(operation, epsilon, issuer)

    def _release(self, operation: str, epsilon: float, issuer: str):
        """Serve one DP release of ``operation`` on both federations, as the
        model predicts it; the flat outcome."""
        inner, answer = self._inner(operation)
        text = f"{inner} WITH SLO(dp_epsilon={epsilon})"
        self.operations[text] = operation
        members = self.federation.members
        spent = self.federation.dp_gate.accountant.epsilon.spent
        outcome = self._execute(text, issuer=issuer)
        # The audit records the inner statement; it ran iff it took rounds.
        assert (outcome.rounds == 0) == self._cached(inner)
        if outcome.rounds:
            self._stored(inner)
        self.served.append(
            (issuer, members, inner, outcome.protocol.removesuffix("+dp"),
             outcome.rounds, outcome.messages, answer, outcome.rounds == 0)
        )
        # Free exactly when the latest release perturbed this very answer,
        # whether the inner answer came from cache or was re-executed.
        assert outcome.cached == (self.latest.get(text) == answer)
        if outcome.cached:
            self.free_serves += 1
            assert self.federation.dp_gate.accountant.epsilon.spent == spent
        else:
            self.charged += 1
            self.charged_epsilon += epsilon
            self.latest[text] = answer
        self.released.setdefault((text, answer), outcome.values)
        self.releases.append((text, answer, outcome.values))
        return outcome

    @precondition(lambda self: len(self.model) >= 3)
    @rule(
        operation=st.sampled_from(["SUM", "COUNT", "TOP"]),
        epsilon=st.sampled_from([0.25, 0.5]),
    )
    def tenant_epsilon_runs_out(self, operation: str, epsilon: float) -> None:
        # The twin's ``thrifty`` tenant holds a small epsilon budget that a
        # session spends part way through.  A release it can pay for, or a
        # free re-serve, is served on both federations; a fresh release it
        # cannot pay for is refused BudgetExhausted("epsilon") by the batch's
        # one admission, before anything runs: no spend, audit entry, cache
        # count or shard dispatch moves.
        inner, answer = self._inner(operation)
        text = f"{inner} WITH SLO(dp_epsilon={epsilon})"
        account = self.twin.router.tenant(THRIFTY)
        free = self.latest.get(text) == answer
        meter = SpendMeter(account.policy.dp_epsilon_budget, sum(self.thrifty_charges))
        if free or not meter.would_exceed(epsilon):
            if not self._release(operation, epsilon, THRIFTY).cached:
                self.thrifty_charges.append(epsilon)
            return
        if text in self.latest:
            # Released before over other data: admitted on optimistic reuse,
            # so the refusal comes only once its inner statement has run.
            return

        def books() -> tuple:
            return (
                self._books(),
                account.dp.epsilon.spent,
                self.twin.dp_gate.accountant.epsilon.spent,
                dict(self.twin.shard_queries),
            )

        before = books()
        with pytest.raises(BudgetExhausted) as refused:
            self.twin.execute(text, issuer=THRIFTY)
        assert refused.value.dimension == "epsilon"
        assert books() == before

    def _inner(self, operation: str) -> tuple[str, tuple]:
        """A DP operation's inner statement and the model's exact answer."""
        if operation == "TOP":
            return "SELECT TOP 2 value FROM data", self._top(2)
        pooled = self._pooled()
        answer = (float(sum(pooled) if operation == "SUM" else len(pooled)),)
        return f"SELECT {operation}(value) FROM data", answer

    @precondition(lambda self: len(self.model) >= 3 and self.latest)
    @rule(pick=st.randoms(use_true_random=False))
    def dp_fast_path(self, pick: random.Random) -> None:
        # Free exactly when the latest release perturbed the current answer
        # and that answer is still cached; a miss serves and counts nothing.
        text = pick.choice(sorted(self.latest))
        inner, answer = self._inner(self.operations[text])
        hit = self.latest[text] == answer and self._cached(inner)
        members = self.federation.members
        before = self._books()
        outcome = self.federation.try_cached(text)
        twin = self.twin.try_cached(text)
        assert (outcome is not None) == (twin is not None) == hit
        if not hit:
            assert self._books() == before
            return
        assert outcome.values == twin.values == self.released[(text, answer)]
        self.outcomes.append(outcome)
        self.twin_outcomes.append(twin)
        self.issuers.append("anonymous")
        self._note_hits(text, outcome, twin)
        self.free_serves += 1
        # The flat fast path audits the release itself.
        self.served.append(
            ("anonymous", members, outcome.statement, outcome.protocol, 0, 0,
             outcome.values, True)
        )

    def _books(self) -> list[tuple[int, int, int]]:
        """Audit length, cache hits and misses: flat, then the twin."""
        return [
            (len(audit), cache.hits, cache.misses)
            for audit, cache in (
                (self.federation.audit, self.federation.cache),
                (self.twin.shards[0].federation.audit, self.twin.cache),
            )
        ]

    @rule(statement=st.sampled_from(GOVERNED_PLAIN))
    def governed_plain_is_refused(self, statement: str) -> None:
        # Hit or miss, routed or fanned out: refused typed before the tenant
        # bucket, the cache and admission, charging nothing anywhere.
        account = self.twin.router.tenant("gov")

        def books() -> tuple:
            bucket = account.bucket
            return (
                self._books(),
                self.twin.dp_gate.accountant.epsilon.spent,
                account.dp.epsilon.spent,
                account.lop.spent,
                account.queries,
                None if bucket is None else (bucket.tokens, bucket.updated),
                dict(self.twin.shard_queries),
            )

        before, refusals = books(), account.refusals
        with pytest.raises(DpRequired):
            self.twin.try_cached(statement, issuer="gov")
        with pytest.raises(DpRequired):
            self.twin.execute(statement, issuer="gov")
        assert books() == before
        assert account.refusals == refusals + 2

    @rule(budget=st.sampled_from([0.25, 0.5, 1.0]))
    def meter_budget_is_replaced(self, budget: float) -> None:
        # Never below the spend it binds against.
        budget = max(budget, sum(self.meter_charges))
        self.twin.set_tenant("meter", TenantPolicy(lop_budget=budget))
        self.meter_budget = budget

    def _estimate(self, k: int, slo: str = ""):
        """The cost model's estimate of what ``TOP k`` with ``slo`` runs."""
        parties = len(self.model)
        if slo:
            text = f"SELECT TOP {k} value FROM data{slo}"
            plan = QueryPlanner().plan(parse_spec(text), parties=parties)
            protocol, params = plan.protocol, plan.params
        else:
            protocol, params = EXACT.protocol, EXACT.params
        return CostModel().ranking_estimate(
            n_parties=parties, k=k, protocol=protocol, params=params
        )

    def _meter_affords(self, estimate, hit: bool = False) -> bool:
        """The twin's LoP admission of one ``meter`` statement: a hit will
        not run and is free; any other charge must pass ``SpendMeter``'s test
        on top of what the meter has spent."""
        meter = SpendMeter(self.meter_budget, sum(self.meter_charges))
        return hit or not meter.would_exceed(estimate.expected_lop)

    @precondition(lambda self: len(self.model) >= 3)
    @rule(k=st.integers(min_value=1, max_value=4), slo=st.sampled_from(METERED_SLOS))
    def meter_pays_for_what_runs(self, k: int, slo: str) -> None:
        bare = f"SELECT TOP {k} value FROM data"
        text = bare + slo
        estimate = self._estimate(k, slo)
        account = self.twin.router.tenant("meter")
        if not self._meter_affords(estimate, self._cached(bare)):
            def books() -> tuple:
                return self._books(), account.lop.spent, dict(self.twin.shard_queries)

            before = books()
            with pytest.raises(BudgetExhausted) as refused:
                self.twin.execute(text, issuer="meter")
            assert refused.value.dimension == "lop"
            assert books() == before
            return
        outcome = self._serve(text, issuer="meter", bare=bare)
        if slo and not outcome.cached:
            # A randomised plan ran: it may fall short of the exact answer.
            assert_within_guarantee(outcome.values, self._top(k))
            if outcome.values != self._top(k):
                # The model's answers are exact: no later hit may serve this.
                self.invalidate_cache()
        else:
            assert outcome.values == self._top(k)
        if not outcome.cached:
            # It ran the configuration it is charged for.
            assert (outcome.rounds, outcome.messages) == (
                estimate.rounds, estimate.messages,
            )
            self.meter_charges.append(estimate.expected_lop)

    @precondition(lambda self: len(self.model) >= 3)
    @rule(k=st.integers(min_value=1, max_value=4), missing=st.sampled_from(MISSING))
    def a_missing_table_refuses_only_itself(self, k: int, missing: str) -> None:
        # Refused before it is planned or seeded, the missing statement leaves
        # the valid one served as if alone, and the meter pays for that only.
        text = f"SELECT TOP {k} value FROM data"
        estimate = self._estimate(k)
        affords = self._meter_affords(estimate, self._cached(text))
        issuer = "meter" if affords else "anonymous"
        outcome = self._serve(text, issuer=issuer, beside=missing.format(k=k))
        assert outcome.values == self._top(k)
        if issuer == "meter" and not outcome.cached:
            self.meter_charges.append(estimate.expected_lop)

    @precondition(lambda self: len(self.model) >= 3)
    @rule(ks=st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=4))
    def meter_batch_is_admitted_as_if_sequential(self, ks: list[int]) -> None:
        # One batch of the meter's TOP k statements, duplicates and all, is
        # admitted as a sequential replay admits them: in order, a hit or a
        # duplicate of a statement served earlier in the batch free, every
        # other charge against what was spent plus what the batch admitted
        # before it.  The flat federation serves just the admitted ones.
        texts = [f"SELECT TOP {k} value FROM data" for k in ks]
        members = self.federation.members
        verdicts: list[tuple[bool, bool]] = []  # (admitted, served cached)
        seen: set[str] = set()
        for k, text in zip(ks, texts):
            cached = self._cached(text) or text in seen
            estimate = self._estimate(k)
            admitted = self._meter_affords(estimate, cached)
            if admitted and not cached:
                self.meter_charges.append(estimate.expected_lop)
            if admitted:
                seen.add(text)
            verdicts.append((admitted, cached))
        results = self.twin.execute_many_settled(texts, issuer="meter")
        flat = iter(self.federation.execute_many_settled(
            [text for text, (admitted, _) in zip(texts, verdicts) if admitted],
            issuer="meter",
        ))
        for k, text, (admitted, cached), twin in zip(ks, texts, verdicts, results):
            if not admitted:
                assert isinstance(twin, QueryRefused)
                assert type(twin.error) is BudgetExhausted
                assert twin.error.dimension == "lop"
                continue
            outcome = next(flat)
            assert outcome.cached == cached
            assert outcome.values == self._top(k)
            self.outcomes.append(outcome)
            self.twin_outcomes.append(twin)
            self.issuers.append("meter")
            self._note_hits(text, outcome, twin)
            if not cached:
                self._stored(text)
            self.served.append(
                ("meter", members, outcome.statement, outcome.protocol,
                 outcome.rounds, outcome.messages, outcome.values, outcome.cached)
            )

    @precondition(lambda self: len(self.model) >= 3)
    @rule(k=st.integers(min_value=1, max_value=4), twin_first=st.booleans())
    def an_infeasible_twin_is_served_only_a_public_answer(
        self, k: int, twin_first: bool
    ) -> None:
        # No plan meets ``max_rounds=1``.  In one batch with its plain form,
        # in either order, the twin is served the plain answer when that is
        # public by its turn -- cached, or run earlier in the batch -- and
        # refused PlanInfeasible otherwise, as a sequential replay serves
        # them, flat and twin alike.
        bare = f"SELECT TOP {k} value FROM data"
        texts = [bare, f"{bare} WITH SLO(max_rounds=1)"]
        if twin_first:
            texts.reverse()
        members = self.federation.members
        verdicts: list[bool | None] = []  # served cached, or None: refused
        public = self._cached(bare)
        for text in texts:
            verdicts.append(public if public or text == bare else None)
            public = public or text == bare
        flat = self.federation.execute_many_settled(texts)
        sharded = self.twin.execute_many_settled(texts)
        for cached, outcome, twin in zip(verdicts, flat, sharded):
            if cached is None:
                for result in (outcome, twin):
                    assert isinstance(result, QueryRefused)
                    assert type(result.error) is PlanInfeasible
                continue
            assert outcome.cached == cached
            assert outcome.values == self._top(k)
            self.outcomes.append(outcome)
            self.twin_outcomes.append(twin)
            self.issuers.append("anonymous")
            self._note_hits(bare, outcome, twin)
            if not cached:
                self._stored(bare)
            self.served.append(
                ("anonymous", members, outcome.statement, outcome.protocol,
                 outcome.rounds, outcome.messages, outcome.values, outcome.cached)
            )

    @rule()
    def malformed_statement_serves_nothing(self) -> None:
        for federation in (self.federation, self.twin):
            with pytest.raises(SqlError):
                federation.execute("SELECT TOP value FROM data")

    @precondition(lambda self: len(self.model) < 3)
    @rule()
    def below_quorum_serves_nothing(self) -> None:
        # The shard's refusal reaches the sharded caller as itself.
        for federation in (self.federation, self.twin):
            with pytest.raises(FederationError):
                federation.execute("SELECT MAX(value) FROM data")

    # -- invariants ------------------------------------------------------------------

    @invariant()
    def members_match_model(self) -> None:
        assert self.federation.members == tuple(sorted(self.model))

    @invariant()
    def audit_is_the_served_list(self) -> None:
        entries = list(self.federation.audit)
        assert [
            (e.issuer, e.participants, e.statement, e.protocol, e.rounds,
             e.messages, e.result_public, e.cached)
            for e in entries
        ] == self.served
        assert all(a.entry_id < b.entry_id for a, b in zip(entries, entries[1:]))

    @invariant()
    def every_release_matches_its_answer(self) -> None:
        # Equal inner answers give equal bytes: across the cache, its drops
        # and restarts alike.
        for text, answer, values in self.releases:
            assert values == self.released[(text, answer)]

    @invariant()
    def epsilon_is_the_sum_of_charged_releases(self) -> None:
        spent = self.federation.dp_gate.accountant.epsilon.spent
        assert spent >= self.last_spent  # monotone until a restart
        assert spent == pytest.approx(self.charged_epsilon)
        self.last_spent = spent

    @invariant()
    def tenant_epsilon_is_the_sum_of_its_charged_releases(self) -> None:
        accountant = self.twin.router.dp_accountant(THRIFTY)
        spent = accountant.epsilon.spent
        assert spent == pytest.approx(sum(self.thrifty_charges), rel=1e-12)
        assert [c.epsilon for c in accountant.charges] == self.thrifty_charges
        assert spent <= self._thrifty_budget + 1e-12

    @invariant()
    def an_unchanged_hit_is_the_same_object(self) -> None:
        # A spelling hit again, equal to its last hit with nothing since that
        # could move its answer, is that hit's object, flat and twin: a
        # cached answer's outcome, a DP free re-serve.
        assert all(hit is last for hit, last in self.repeat_hits)

    @invariant()
    def one_shard_twin_serves_equal_outcomes(self) -> None:
        assert self.twin_outcomes == self.outcomes

    @invariant()
    def one_shard_twin_composes_the_same_ledger(self) -> None:
        assert (
            self.twin.dp_gate.accountant.ledger_lines()
            == self.federation.dp_gate.accountant.ledger_lines()
        )

    @invariant()
    def one_shard_twin_counts_the_same_hits(self) -> None:
        flat, twin = self.federation.cache, self.twin.cache
        assert (twin.hits, twin.misses) == (flat.hits, flat.misses)

    @invariant()
    def governed_issuers_get_dp_releases_only(self) -> None:
        for issuer, outcome in zip(self.issuers, self.twin_outcomes):
            accountant = self.twin.router.dp_accountant(issuer)
            if accountant is not None and accountant.governs:
                assert outcome.protocol.endswith("+dp")

    @invariant()
    def meter_is_charged_what_ran(self) -> None:
        account = self.twin.router.tenant("meter")
        assert account.lop.spent == pytest.approx(sum(self.meter_charges), rel=1e-12)
        assert account.lop.spent <= self.meter_budget + 1e-12

    @invariant()
    def free_serves_charge_nothing(self) -> None:
        accountant = self.federation.dp_gate.accountant
        assert accountant.free_serves == self.free_serves
        assert accountant.releases == len(accountant.charges) == self.charged


FederationMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestFederationStateful = FederationMachine.TestCase


def test_a_randomised_plan_may_fall_short_of_the_exact_top_k():
    """The case that once failed ``meter_pays_for_what_runs``: correct code
    answering inexactly, within what the protocol guarantees."""
    federation = Federation(domain=PAPER_DOMAIN, seed=99)
    for owner, values in (
        ("p0", [1556, 1556, 2929, 2929]), ("p1", [1]), ("p2", [2929, 2929]),
    ):
        federation.register(database_from_values(owner, values))
    text = "SELECT TOP 4 value FROM data WITH SLO(max_rounds=6)"
    outcome = federation.execute(text)
    exact = (2929.0,) * 4
    assert outcome.values == (2929.0, 2929.0, 2928.0, 2928.0)
    assert_within_guarantee(outcome.values, exact)
    plan = QueryPlanner().plan(parse_spec(text), parties=3)
    estimate = CostModel().ranking_estimate(
        n_parties=3, k=4, protocol=plan.protocol, params=plan.params
    )
    assert (outcome.rounds, outcome.messages) == (estimate.rounds, estimate.messages)
    assert (outcome.rounds, outcome.messages) == (6, 21)
