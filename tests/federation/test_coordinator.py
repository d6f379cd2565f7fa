"""Integration tests for the federation coordinator."""

import random

import pytest

from repro.core.driver import RunConfig
from repro.database.database import database_from_values
from repro.database.query import PAPER_DOMAIN, Domain
from repro.federation import Federation, FederationError, SqlError


@pytest.fixture
def federation() -> Federation:
    fed = Federation(domain=PAPER_DOMAIN, seed=7)
    datasets = {
        "acme": [100, 900, 250],
        "bravo": [9000, 40],
        "corex": [7000, 6500, 3],
        "delta": [5],
    }
    for owner, values in datasets.items():
        fed.register(database_from_values(owner, values))
    return fed


ALL_VALUES = [100, 900, 250, 9000, 40, 7000, 6500, 3, 5]


class TestMembership:
    def test_members_sorted(self, federation):
        assert federation.members == ("acme", "bravo", "corex", "delta")

    def test_duplicate_registration_rejected(self, federation):
        with pytest.raises(FederationError, match="already registered"):
            federation.register(database_from_values("acme", [1]))

    def test_deregister(self, federation):
        federation.deregister("delta")
        assert "delta" not in federation.members
        with pytest.raises(FederationError, match="no such party"):
            federation.deregister("delta")

    def test_quorum_enforced(self):
        fed = Federation(domain=PAPER_DOMAIN, seed=1)
        fed.register(database_from_values("a", [1]))
        fed.register(database_from_values("b", [2]))
        with pytest.raises(FederationError, match="n >= 3"):
            fed.execute("SELECT MAX(value) FROM data")


class TestRankingQueries:
    def test_topk(self, federation):
        outcome = federation.execute("SELECT TOP 3 value FROM data")
        assert outcome.values == (9000.0, 7000.0, 6500.0)
        assert outcome.protocol == "probabilistic"
        # The issuer gets the answer and the ring's average LoP, never the
        # ring's transcript.
        assert outcome.trace is None
        assert 0.0 <= outcome.average_lop <= 1.0

    def test_bottomk(self, federation):
        outcome = federation.execute("SELECT BOTTOM 2 value FROM data")
        assert outcome.values == (3.0, 5.0)

    def test_max_min(self, federation):
        assert federation.execute("SELECT MAX(value) FROM data").values == (9000.0,)
        assert federation.execute("SELECT MIN(value) FROM data").values == (3.0,)

    def test_execute_sql(self, federation):
        outcome = federation.execute("SELECT TOP 2 value FROM data")
        assert outcome.values == (9000.0, 7000.0)

    def test_fresh_randomness_per_query(self, federation, transcripts):
        # A repeat is a cached re-serve and runs no ring.  Two *executions*
        # of one statement must not produce identical traces (the noise must
        # differ or an observer could difference it out).
        first = federation.execute("SELECT TOP 1 value FROM data")
        assert federation.execute("SELECT TOP 1 value FROM data").cached
        federation.cache.clear()
        second = federation.execute("SELECT TOP 1 value FROM data")
        assert not second.cached
        assert first.values == second.values
        first_run, second_run = transcripts
        t1 = [(o.round, o.sender, o.vector) for o in first_run.event_log]
        t2 = [(o.round, o.sender, o.vector) for o in second_run.event_log]
        assert t1 != t2


class TestAdditiveQueries:
    def test_sum(self, federation):
        outcome = federation.execute("SELECT SUM(value) FROM data")
        assert outcome.values[0] == pytest.approx(sum(ALL_VALUES), abs=1e-3)

    def test_count(self, federation):
        outcome = federation.execute("SELECT COUNT(value) FROM data")
        assert outcome.values == (len(ALL_VALUES),)

    def test_avg(self, federation):
        outcome = federation.execute("SELECT AVG(value) FROM data")
        assert outcome.values[0] == pytest.approx(
            sum(ALL_VALUES) / len(ALL_VALUES), rel=1e-6
        )

    def test_additive_protocol_tag(self, federation):
        outcome = federation.execute("SELECT SUM(value) FROM data")
        assert outcome.protocol == "secure-sum"
        assert outcome.trace is None
        assert outcome.average_lop is None
        assert outcome.messages > 0


class TestValidation:
    def test_bad_sql_surfaces(self, federation):
        with pytest.raises(SqlError):
            federation.execute("SELECT MEDIAN(value) FROM data")

    def test_unknown_table_surfaces(self, federation):
        from repro.database.schema import SchemaError

        with pytest.raises(SchemaError, match="no such table"):
            federation.execute("SELECT MAX(value) FROM ghost")

    def test_mismatched_schema_surfaces(self):
        fed = Federation(domain=PAPER_DOMAIN, seed=2)
        fed.register(database_from_values("a", [1]))
        fed.register(database_from_values("b", [2]))
        fed.register(database_from_values("c", [3], attribute="other"))
        from repro.database.schema import SchemaError

        with pytest.raises(SchemaError):
            fed.execute("SELECT MAX(value) FROM data")


class TestAudit:
    def test_every_query_audited(self, federation):
        federation.execute("SELECT MAX(value) FROM data", issuer="alice")
        federation.execute("SELECT SUM(value) FROM data", issuer="bob")
        federation.execute("SELECT TOP 2 value FROM data", issuer="alice")
        assert len(federation.audit) == 3
        assert [entry.issuer for entry in federation.audit] == ["alice", "bob", "alice"]

    def test_audit_records_metadata_not_private_data(self, federation):
        federation.execute("SELECT MAX(value) FROM data", issuer="alice")
        entry = federation.audit[-1]
        assert entry.result_public == (9000.0,)
        assert entry.participants == federation.members
        assert entry.messages > 0
        assert entry.average_lop is not None


class TestPerAttributeDomains:
    def test_registered_domain_used_for_ranking(self, transcripts):
        fed = Federation(domain=PAPER_DOMAIN, seed=9)
        fed.register_domain("data", "score", Domain(1, 100))
        for name, values in (("a", [40]), ("b", [95]), ("c", [12])):
            fed.register(database_from_values(name, values, attribute="score"))
        outcome = fed.execute("SELECT TOP 2 score FROM data")
        assert outcome.values == (95.0, 40.0)
        # The query really carried the narrow domain.
        (run,) = transcripts
        assert run.query.domain.high == 100

    def test_out_of_registered_domain_value_rejected(self):
        from repro.database.query import QueryError

        fed = Federation(domain=PAPER_DOMAIN, seed=9)
        fed.register_domain("data", "score", Domain(1, 100))
        for name, values in (("a", [40]), ("b", [950]), ("c", [12])):
            fed.register(database_from_values(name, values, attribute="score"))
        with pytest.raises(QueryError, match="outside the public domain"):
            fed.execute("SELECT MAX(score) FROM data")

    def test_fallback_to_default_domain(self):
        fed = Federation(domain=PAPER_DOMAIN, seed=9)
        assert fed.domain_for("data", "anything") is PAPER_DOMAIN


class TestConfigInjection:
    def test_custom_protocol_config(self):
        fed = Federation(
            domain=Domain(1, 10_000),
            config=RunConfig(protocol="naive"),
            seed=5,
        )
        rng = random.Random(3)
        for name in ("a", "b", "c"):
            fed.register(
                database_from_values(name, [rng.randint(1, 9999) for _ in range(5)])
            )
        outcome = fed.execute("SELECT TOP 2 value FROM data")
        assert outcome.protocol == "naive"
        assert outcome.rounds == 1
