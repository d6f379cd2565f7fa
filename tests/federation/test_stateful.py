"""Stateful property test: a federation session behaves like its model.

Hypothesis drives random sequences of registrations, deregistrations,
queries, cache repeats and refusals; a plain-Python model of the pooled data
predicts every answer, and the machine's list of served outcomes is the audit
log.
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

NAMES = [f"org{i}" for i in range(6)]


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
        # The model predicts *exact* answers, so no party may randomise
        # (p0 = 0).  Under the default schedule a ring converges only with
        # the probability of Eq. 3, and hypothesis eventually draws a session
        # where one does not: TOP 4 over (118, 162), (160, 162, 162, 162),
        # (162) once came back as (162, 162, 161, 161).
        exact = ProtocolParams(schedule=ExponentialSchedule(p0=0.0), rounds=4)
        self.federation = Federation(
            domain=PAPER_DOMAIN, config=RunConfig(params=exact), seed=99
        )
        self.model: dict[str, list[int]] = {}
        #: (issuer, members, outcome) per served statement, in serve order.
        self.served: list[tuple] = []
        # Start at quorum, so every query rule can fire from the first step.
        for values in founders:
            self.register(NAMES[0], values)

    def _serve(self, text: str, issuer: str = "anonymous", use_cache: bool = False):
        members = self.federation.members
        outcome = self.federation.execute(text, issuer=issuer, use_cache=use_cache)
        self.served.append((issuer, members, outcome))
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
        unique_name = f"{name}-{self._counter}"
        self.federation.register(database_from_values(unique_name, values))
        self.model[unique_name] = values

    @precondition(lambda self: len(self.model) > 0)
    @rule(pick=st.randoms(use_true_random=False))
    def deregister(self, pick: random.Random) -> None:
        name = pick.choice(sorted(self.model))
        self.federation.deregister(name)
        del self.model[name]

    # -- queries ------------------------------------------------------------------

    def _pooled(self) -> list[int]:
        return [v for vs in self.model.values() for v in vs]

    @precondition(lambda self: len(self.model) >= 3)
    @rule(k=st.integers(min_value=1, max_value=4))
    def topk_matches_model(self, k: int) -> None:
        outcome = self._serve(f"SELECT TOP {k} value FROM data")
        pooled = sorted(self._pooled(), reverse=True)[:k]
        expected = pooled + [int(PAPER_DOMAIN.low)] * (k - len(pooled))
        assert list(outcome.values) == [float(v) for v in expected]

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
        ] == [
            (issuer, members, o.statement, o.protocol, o.rounds, o.messages,
             o.values, o.cached)
            for issuer, members, o in self.served
        ]
        assert all(a.entry_id < b.entry_id for a, b in zip(entries, entries[1:]))


FederationMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None
)
TestFederationStateful = FederationMachine.TestCase
