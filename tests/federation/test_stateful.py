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
cache hits and misses.
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
from repro.federation import Federation, FederationError, SqlError
from repro.privacy.dp import DpPolicy
from repro.sharding import ShardedFederation, ShardError
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


class FederationMachine(RuleBasedStateMachine):
    @initialize(
        founders=st.lists(
            st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=6),
            min_size=3,
            max_size=3,
        )
    )
    def setup(self, founders: list[list[int]]) -> None:
        self._counter = 0
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
            domain=PAPER_DOMAIN, config=EXACT, seed=99, dp=DpPolicy(seed=5)
        )
        shard = Federation(domain=PAPER_DOMAIN, config=EXACT, seed=99)
        self.twin = ShardedFederation(
            [LocalShard(shard)], dp=DpPolicy(seed=5), domain=PAPER_DOMAIN
        )
        self.databases: dict = {}
        self.twin_databases: dict = {}
        #: Inner statements with a cache-valid answer (both federations).
        self.cached: set[str] = set()
        #: The audit entry each served statement must leave, in serve order.
        self.served: list[tuple] = []
        #: What each federation served, in serve order.
        self.outcomes: list = []
        self.twin_outcomes: list = []
        #: statement -> the inner answer its latest charged release perturbed.
        self.latest: dict[str, tuple] = {}
        #: DP statement -> its operation.
        self.operations: dict[str, str] = {}
        self.charged_epsilon = 0.0
        self.charged = 0
        self.free_serves = 0
        self.last_spent = 0.0

    def _join(self, name: str, values: list[int]) -> None:
        database = database_from_values(name, values)
        self.federation.register(database)
        self.databases[name] = database
        self.twin_databases[name] = database_from_values(name, values)
        self.twin.register(self.twin_databases[name], shard=0)
        self.model[name] = list(values)
        self.cached.clear()

    def _execute(self, text: str, issuer: str = "anonymous"):
        """Serve ``text`` on both federations; the flat outcome."""
        outcome = self.federation.execute(text, issuer=issuer)
        self.outcomes.append(outcome)
        self.twin_outcomes.append(self.twin.execute(text, issuer=issuer))
        return outcome

    def _serve(self, text: str, issuer: str = "anonymous"):
        members = self.federation.members
        outcome = self._execute(text, issuer=issuer)
        self.cached.add(outcome.statement)
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
        self.cached.clear()

    @precondition(lambda self: len(self.model) > 0)
    @rule(pick=st.randoms(use_true_random=False), value=st.integers(1, 10_000))
    def insert_row(self, pick: random.Random, value: int) -> None:
        name = pick.choice(sorted(self.model))
        self.databases[name].insert("data", {"value": value})
        self.twin_databases[name].insert("data", {"value": value})
        self.model[name].append(value)
        self.cached.clear()

    @rule()
    def invalidate_cache(self) -> None:
        self.federation.cache.clear()
        self.twin.shards[0].federation.cache.clear()
        self.cached.clear()

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
    @rule(k=st.integers(min_value=1, max_value=2), issuer=st.sampled_from(["ann", "bo"]))
    def repeat_through_the_cache(self, k: int, issuer: str) -> None:
        # The first ask of a form under this membership executes; repeats hit.
        for _ in range(2):
            self._serve(f"SELECT TOP {k} value FROM data", issuer=issuer)

    @precondition(lambda self: len(self.model) >= 3)
    @rule(
        operation=st.sampled_from(["SUM", "COUNT", "TOP"]),
        epsilon=st.sampled_from([0.25, 1.0]),
    )
    def dp_release_is_keyed_by_its_answer(self, operation: str, epsilon: float) -> None:
        # Six statements in all, so a session repeats some across the cache
        # drops, inserts and restarts between them.
        inner, answer = self._inner(operation)
        text = f"{inner} WITH SLO(dp_epsilon={epsilon})"
        self.operations[text] = operation
        members = self.federation.members
        spent = self.federation.dp_gate.accountant.epsilon.spent
        outcome = self._execute(text)
        self.cached.add(inner)
        # The audit records the inner statement; it ran iff it took rounds.
        self.served.append(
            ("anonymous", members, inner, outcome.protocol.removesuffix("+dp"),
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
        hit = self.latest[text] == answer and inner in self.cached
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

    @rule()
    def malformed_statement_serves_nothing(self) -> None:
        for federation in (self.federation, self.twin):
            with pytest.raises(SqlError):
                federation.execute("SELECT TOP value FROM data")

    @precondition(lambda self: len(self.model) < 3)
    @rule()
    def below_quorum_serves_nothing(self) -> None:
        with pytest.raises(FederationError):
            self.federation.execute("SELECT MAX(value) FROM data")
        # The shard's refusal reaches the sharded caller as a shard failure.
        with pytest.raises(ShardError, match="FederationError"):
            self.twin.execute("SELECT MAX(value) FROM data")

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
    def free_serves_charge_nothing(self) -> None:
        accountant = self.federation.dp_gate.accountant
        assert accountant.free_serves == self.free_serves
        assert accountant.releases == len(accountant.charges) == self.charged


FederationMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestFederationStateful = FederationMachine.TestCase
