"""Tests for the issuer rule on a federation: who may ask what.

There is one rule, derived from the budgets already configured: an issuer a
finite epsilon or delta budget applies to is DP-governed, and gets DP
releases only.  The flat federation's ``DpPolicy`` budget covers every
issuer; tenants are the sharded federation's (``test_dp_release_rules.py``).
"""

import math

import pytest

from repro.database.database import database_from_values
from repro.database.query import PAPER_DOMAIN
from repro.federation import Federation
from repro.privacy.dp import DpPolicy, DpRequired, PrivacyAccountant

BUDGET = DpPolicy(epsilon_budget=4.0, seed=3)


def _federation(dp=None) -> Federation:
    fed = Federation(domain=PAPER_DOMAIN, seed=3, dp=dp)
    for name, values in (("a", [10]), ("b", [9000]), ("c", [5])):
        fed.register(database_from_values(name, values))
    return fed


class TestRules:
    def test_groups(self):
        # No per-operation grant: every ranking and additive operation is
        # refused alike, and a DP AVG — whose inner statements are an exact
        # SUM and COUNT — grants neither.
        fed = _federation(BUDGET)
        fed.execute("SELECT AVG(value) FROM data WITH SLO(dp_epsilon=1.0)")
        for statement in (
            "SELECT TOP 2 value FROM data",
            "SELECT BOTTOM 1 value FROM data",
            "SELECT MAX(value) FROM data",
            "SELECT MIN(value) FROM data",
            "SELECT SUM(value) FROM data",  # cached by the AVG release
            "SELECT COUNT(value) FROM data",  # cached by the AVG release
            "SELECT AVG(value) FROM data",
        ):
            with pytest.raises(DpRequired):
                fed.try_cached(statement)
            with pytest.raises(DpRequired):
                fed.execute(statement)


class TestPolicy:
    def test_deny_by_default(self):
        # Derived from the budgets, not configured: a finite epsilon or delta
        # budget governs; none, or an infinite one, does not.
        assert PrivacyAccountant(epsilon_budget=1.0).governs
        assert PrivacyAccountant(epsilon_budget=0.0).governs
        assert PrivacyAccountant(delta_budget=1e-6).governs
        assert not PrivacyAccountant().governs
        assert not PrivacyAccountant(epsilon_budget=math.inf).governs
        # The federation's budget covers every issuer.
        fed = _federation(BUDGET)
        for issuer in ("anonymous", "analyst", "regulator"):
            with pytest.raises(DpRequired, match=issuer):
                fed.execute("SELECT MAX(value) FROM data", issuer=issuer)


class TestFederationIntegration:
    def test_denied_query_runs_nothing(self):
        fed = _federation(BUDGET)
        with pytest.raises(DpRequired):
            fed.execute("SELECT MAX(value) FROM data", issuer="analyst")
        assert len(fed.audit) == 0
        assert fed.ledger.runs_charged == 0
        assert (fed.cache.hits, fed.cache.misses) == (0, 0)
        assert fed.dp_gate.snapshot()["refusals"] == 0

    def test_permitted_issuer_proceeds(self):
        fed = _federation(BUDGET)
        outcome = fed.execute(
            "SELECT MAX(value) FROM data WITH SLO(dp_epsilon=1.0)", issuer="analyst"
        )
        assert outcome.protocol.endswith("+dp")
        assert len(fed.audit) == 1
        assert fed.dp_gate.accountant.epsilon.spent == 1.0

    def test_no_policy_permits_everything(self):
        for dp in (None, DpPolicy(seed=3)):  # no DP layer, or no budget
            fed = _federation(dp)
            assert fed.execute("SELECT MIN(value) FROM data").values == (5.0,)
