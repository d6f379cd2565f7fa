"""Stateful property test: a federation session behaves like its model.

Hypothesis drives random sequences of registrations, deregistrations, row
inserts, queries, cache repeats and drops, DP releases, refusals and
restarts; a plain-Python model of the pooled data predicts every answer, and
the machine's list of served outcomes is the audit log.  A DP release is a
function of (statement, exact inner answer): the model keeps the bytes each
pair released, and every later release of the pair — cached, re-executed or
after a restart — must match them.
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
        """A fresh federation from the machine's fixed seeds, and its books."""
        self.federation = Federation(
            domain=PAPER_DOMAIN, config=EXACT, seed=99, dp=DpPolicy(seed=5)
        )
        self.databases: dict = {}
        #: The audit entry each served statement must leave, in serve order.
        self.served: list[tuple] = []
        #: statement -> the inner answer its latest charged release perturbed.
        self.latest: dict[str, tuple] = {}
        self.charged_epsilon = 0.0
        self.charged = 0
        self.free_serves = 0
        self.last_spent = 0.0

    def _join(self, name: str, values: list[int]) -> None:
        database = database_from_values(name, values)
        self.federation.register(database)
        self.databases[name] = database
        self.model[name] = list(values)

    def _serve(self, text: str, issuer: str = "anonymous", use_cache: bool = False):
        members = self.federation.members
        outcome = self.federation.execute(text, issuer=issuer, use_cache=use_cache)
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
        del self.model[name], self.databases[name]

    @precondition(lambda self: len(self.model) > 0)
    @rule(pick=st.randoms(use_true_random=False), value=st.integers(1, 10_000))
    def insert_row(self, pick: random.Random, value: int) -> None:
        name = pick.choice(sorted(self.model))
        self.databases[name].insert("data", {"value": value})
        self.model[name].append(value)

    @rule()
    def invalidate_cache(self) -> None:
        self.federation.cache.clear()

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
            self._serve(f"SELECT TOP {k} value FROM data", issuer=issuer, use_cache=True)

    @precondition(lambda self: len(self.model) >= 3)
    @rule(
        operation=st.sampled_from(["SUM", "COUNT", "TOP"]),
        epsilon=st.sampled_from([0.25, 1.0]),
    )
    def dp_release_is_keyed_by_its_answer(self, operation: str, epsilon: float) -> None:
        # Six statements in all, so a session repeats some across the cache
        # drops, inserts and restarts between them.
        if operation == "TOP":
            inner, answer = "SELECT TOP 2 value FROM data", self._top(2)
        else:
            inner = f"SELECT {operation}(value) FROM data"
            pooled = self._pooled()
            answer = (float(sum(pooled) if operation == "SUM" else len(pooled)),)
        text = f"{inner} WITH SLO(dp_epsilon={epsilon})"
        members = self.federation.members
        spent = self.federation.dp_gate.accountant.epsilon.spent
        outcome = self.federation.execute(text)
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

    @rule(use_cache=st.booleans())
    def malformed_statement_serves_nothing(self, use_cache: bool) -> None:
        with pytest.raises(SqlError):
            self.federation.execute("SELECT TOP value FROM data", use_cache=use_cache)

    @precondition(lambda self: len(self.model) < 3)
    @rule(use_cache=st.booleans())
    def below_quorum_serves_nothing(self, use_cache: bool) -> None:
        with pytest.raises(FederationError):
            self.federation.execute("SELECT MAX(value) FROM data", use_cache=use_cache)

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
    def free_serves_charge_nothing(self) -> None:
        accountant = self.federation.dp_gate.accountant
        assert accountant.free_serves == self.free_serves
        assert accountant.releases == len(accountant.charges) == self.charged


FederationMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestFederationStateful = FederationMachine.TestCase
