"""Stateful property test: a federation session behaves like its model.

Hypothesis drives random sequences of registrations, deregistrations and
queries; a plain-Python model of the pooled data predicts every answer.
"""

import random

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
from repro.federation import Federation

NAMES = [f"org{i}" for i in range(6)]


class FederationMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
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
        outcome = self.federation.execute(f"SELECT TOP {k} value FROM data")
        pooled = sorted(self._pooled(), reverse=True)[:k]
        expected = pooled + [int(PAPER_DOMAIN.low)] * (k - len(pooled))
        assert list(outcome.values) == [float(v) for v in expected]

    @precondition(lambda self: len(self.model) >= 3)
    @rule()
    def sum_matches_model(self) -> None:
        outcome = self.federation.execute("SELECT SUM(value) FROM data")
        assert outcome.values == (sum(self._pooled()),)

    @precondition(lambda self: len(self.model) >= 3)
    @rule()
    def min_matches_model(self) -> None:
        outcome = self.federation.execute("SELECT MIN(value) FROM data")
        assert outcome.values == (min(self._pooled()),)

    # -- invariants ------------------------------------------------------------------

    @invariant()
    def members_match_model(self) -> None:
        assert self.federation.members == tuple(sorted(self.model))

    @invariant()
    def audit_only_grows(self) -> None:
        if not hasattr(self, "_audit_high_water"):
            self._audit_high_water = 0
        assert len(self.federation.audit) >= self._audit_high_water
        self._audit_high_water = len(self.federation.audit)


FederationMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None
)
TestFederationStateful = FederationMachine.TestCase
