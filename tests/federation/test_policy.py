"""Tests for federation access policies."""

import pytest

from repro.database.database import database_from_values
from repro.database.query import PAPER_DOMAIN
from repro.federation import (
    ADDITIVE,
    ANY,
    RANKING,
    AccessPolicy,
    Federation,
    PolicyError,
    PolicyViolation,
    Rule,
    parse,
)


class TestRules:
    def test_concrete_operation(self):
        rule = Rule(issuer="alice", operation="MAX")
        assert rule.permits("alice", "MAX")
        assert not rule.permits("alice", "TOP")
        assert not rule.permits("bob", "MAX")

    def test_wildcard_issuer(self):
        rule = Rule(issuer="*", operation="SUM")
        assert rule.permits("anyone", "SUM")

    def test_groups(self):
        assert Rule("*", RANKING).permits("x", "TOP")
        assert not Rule("*", RANKING).permits("x", "SUM")
        assert Rule("*", ADDITIVE).permits("x", "AVG")
        assert Rule("*", ANY).permits("x", "MIN")

    def test_unknown_operation_rejected(self):
        with pytest.raises(PolicyError, match="unknown operation"):
            Rule("*", "MEDIAN")

    def test_empty_issuer_rejected(self):
        with pytest.raises(PolicyError, match="issuer"):
            Rule("", "MAX")


class TestPolicy:
    def test_deny_by_default(self):
        policy = AccessPolicy()
        with pytest.raises(PolicyViolation, match="not permitted"):
            policy.check("alice", parse("SELECT MAX(x) FROM t"))

    def test_allow_chainable(self):
        policy = AccessPolicy().allow("alice", RANKING).allow("*", ADDITIVE)
        policy.check("alice", parse("SELECT TOP 3 x FROM t"))
        policy.check("bob", parse("SELECT SUM(x) FROM t"))
        with pytest.raises(PolicyViolation):
            policy.check("bob", parse("SELECT TOP 3 x FROM t"))

    def test_quota(self):
        policy = AccessPolicy(quota_per_issuer=2).allow("*", ANY)
        statement = parse("SELECT MAX(x) FROM t")
        policy.check("alice", statement)
        policy.check("alice", statement)
        with pytest.raises(PolicyViolation, match="quota"):
            policy.check("alice", statement)
        # Quotas are per issuer.
        policy.check("bob", statement)

    def test_quota_validated(self):
        with pytest.raises(PolicyError, match="quota"):
            AccessPolicy(quota_per_issuer=0)

class TestFederationIntegration:
    def _federation(self, policy):
        fed = Federation(domain=PAPER_DOMAIN, seed=3, policy=policy)
        for name, values in (("a", [10]), ("b", [9000]), ("c", [5])):
            fed.register(database_from_values(name, values))
        return fed

    def test_denied_query_runs_nothing(self):
        policy = AccessPolicy().allow("analyst", ADDITIVE)
        fed = self._federation(policy)
        with pytest.raises(PolicyViolation):
            fed.execute("SELECT MAX(value) FROM data", issuer="analyst")
        assert len(fed.audit) == 0
        assert fed.ledger.runs_charged == 0

    def test_permitted_issuer_proceeds(self):
        policy = AccessPolicy().allow("analyst", ANY)
        fed = self._federation(policy)
        outcome = fed.execute("SELECT MAX(value) FROM data", issuer="analyst")
        assert outcome.values == (9000.0,)
        assert len(fed.audit) == 1

    def test_quota_applies_through_federation(self):
        policy = AccessPolicy(quota_per_issuer=1).allow("*", ANY)
        fed = self._federation(policy)
        fed.execute("SELECT SUM(value) FROM data", issuer="analyst")
        with pytest.raises(PolicyViolation, match="quota"):
            fed.execute("SELECT SUM(value) FROM data", issuer="analyst")

    def test_no_policy_permits_everything(self):
        fed = self._federation(None)
        assert fed.execute("SELECT MIN(value) FROM data").values == (5.0,)
