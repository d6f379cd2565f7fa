"""Tests for the batch execution path: dedupe, result cache, parity.

Covers the throughput engine's federation layer: ``Federation.execute_many``
must be indistinguishable from sequential execution (values, rounds,
exposure), serve repeats from the result cache at zero protocol cost, and
invalidate that cache on membership or data changes.
"""

import pytest

from repro.database.database import database_from_values
from repro.database.query import PAPER_DOMAIN
from repro.federation import (
    AccessPolicy,
    Federation,
    FederationError,
    PolicyViolation,
    SqlError,
)
from repro.privacy.accounting import BudgetExceededError

DATASETS = {
    "acme": [100, 900, 250],
    "bravo": [9000, 40],
    "corex": [7000, 6500, 3],
    "delta": [5],
}


def fresh_federation(seed=7, **kwargs) -> Federation:
    fed = Federation(domain=PAPER_DOMAIN, seed=seed, **kwargs)
    for owner, values in DATASETS.items():
        fed.register(database_from_values(owner, values))
    return fed


@pytest.fixture
def federation() -> Federation:
    return fresh_federation()


MIXED_STATEMENTS = [
    "SELECT TOP 3 value FROM data",
    "SELECT SUM(value) FROM data",
    "SELECT BOTTOM 2 value FROM data",
    "SELECT AVG(value) FROM data",
    "SELECT MAX(value) FROM data",
]


class TestBatchSequentialParity:
    """The ISSUE's determinism guarantee: batch == sequential, bit for bit."""

    def test_unique_statements_match_sequential_execute(self):
        batch_fed, seq_fed = fresh_federation(), fresh_federation()
        batch = batch_fed.execute_many(MIXED_STATEMENTS)
        sequential = [seq_fed.execute(s) for s in MIXED_STATEMENTS]
        for b, s in zip(batch, sequential):
            assert b.values == s.values
            assert b.rounds == s.rounds
            assert b.messages == s.messages
            assert b.protocol == s.protocol

    def test_ranking_traces_identical(self, transcripts):
        batch_fed, seq_fed = fresh_federation(), fresh_federation()
        (batch_outcome,) = batch_fed.execute_many(["SELECT TOP 3 value FROM data"])
        assert seq_fed.execute("SELECT TOP 3 value FROM data") == batch_outcome
        b, s = transcripts
        assert b.final_vector == s.final_vector
        assert b.ring_order == s.ring_order
        assert b.rounds_executed == s.rounds_executed
        assert b.round_snapshots == s.round_snapshots

    def test_exposure_charges_identical(self):
        batch_fed, seq_fed = fresh_federation(), fresh_federation()
        batch_fed.execute_many(MIXED_STATEMENTS)
        for s in MIXED_STATEMENTS:
            seq_fed.execute(s)
        for owner in DATASETS:
            assert batch_fed.ledger.exposure(owner) == seq_fed.ledger.exposure(
                owner
            )

    def test_repeats_match_sequential_cached_execution(self):
        statements = [
            "SELECT TOP 2 value FROM data",
            "SELECT SUM(value) FROM data",
            "SELECT TOP 2 value FROM data",
            "SELECT TOP 2 value FROM data",
        ]
        batch_fed, seq_fed = fresh_federation(), fresh_federation()
        batch = batch_fed.execute_many(statements)
        sequential = [seq_fed.execute(s) for s in statements]
        for b, s in zip(batch, sequential):
            assert b.values == s.values
            assert b.cached == s.cached
            assert b.rounds == s.rounds
        for owner in DATASETS:
            assert batch_fed.ledger.exposure(owner) == seq_fed.ledger.exposure(
                owner
            )

    def test_empty_batch(self, federation):
        assert federation.execute_many([]) == []


class TestDedupeAndCache:
    def test_duplicates_deduped_within_batch(self, federation):
        outcomes = federation.execute_many(["SELECT TOP 2 value FROM data"] * 5)
        assert [o.cached for o in outcomes] == [False, True, True, True, True]
        assert len({o.values for o in outcomes}) == 1
        assert federation.cache.hits == 4
        assert federation.cache.misses == 1

    def test_canonicalization_merges_formatting_variants(self, federation):
        outcomes = federation.execute_many(
            ["SELECT TOP 2 value FROM data", "select top 2 value from data;"]
        )
        assert not outcomes[0].cached
        assert outcomes[1].cached
        assert outcomes[0].values == outcomes[1].values

    def test_cache_hit_runs_no_protocol_and_charges_nothing(self, federation):
        first = federation.execute("SELECT TOP 3 value FROM data")
        exposure_before = {
            owner: federation.ledger.exposure(owner) for owner in DATASETS
        }
        runs_before = federation.ledger.runs_charged
        hit = federation.execute("SELECT TOP 3 value FROM data")
        assert hit.cached
        assert hit.values == first.values
        assert hit.rounds == 0
        assert hit.messages == 0
        assert hit.trace is None
        assert hit.simulated_seconds == 0.0
        # Zero *new* exposure: the ledger is untouched by a hit.
        assert federation.ledger.runs_charged == runs_before
        for owner in DATASETS:
            assert federation.ledger.exposure(owner) == exposure_before[owner]

    def test_cache_hits_are_audited(self, federation):
        federation.execute_many(["SELECT MAX(value) FROM data"] * 2)
        entries = federation.audit[-2:]
        assert [e.cached for e in entries] == [False, True]

    def test_plain_execute_reserves_from_cache(self, federation):
        first = federation.execute("SELECT TOP 2 value FROM data")
        outcome = federation.execute("SELECT TOP 2 value FROM data")
        assert outcome.cached
        assert outcome.rounds == 0
        assert outcome.values == first.values

    def test_additive_results_cached_too(self, federation):
        outcomes = federation.execute_many(["SELECT AVG(value) FROM data"] * 2)
        assert not outcomes[0].cached
        assert outcomes[1].cached
        assert outcomes[1].values == outcomes[0].values

    def test_batch_evicting_its_own_cached_entry_still_serves_it(self):
        """Bench finding 11, shrunk: the batch's stores evict what planning
        counted on.  Used to raise "cache entry vanished mid-batch"."""
        fed = fresh_federation(cache_entries=2)
        (first,) = fed.execute_many_settled(["SELECT MAX(value) FROM data"])
        outcomes = fed.execute_many_settled(
            [
                "SELECT TOP 2 value FROM data",  # store: cache full
                "SELECT SUM(value) FROM data",  # store: evicts MAX
                "SELECT MAX(value) FROM data",  # cached at planning time
            ]
        )
        assert [o.cached for o in outcomes] == [False, False, True]
        assert outcomes[2].values == first.values
        assert (fed.cache.hits, fed.cache.misses) == (1, 3)

    def test_batch_evicting_its_own_fresh_entry_still_serves_duplicates(self):
        fed = fresh_federation(cache_entries=1)
        outcomes = fed.execute_many_settled(
            [
                "SELECT TOP 2 value FROM data",
                "SELECT MIN(value) FROM data",  # store: evicts TOP 2
                "SELECT TOP 2 value FROM data",  # duplicate of the first
            ]
        )
        assert [o.cached for o in outcomes] == [False, False, True]
        assert outcomes[2].values == outcomes[0].values
        assert fed.ledger.runs_charged == 2


class TestCacheInvalidation:
    def test_membership_change_invalidates(self, federation):
        federation.execute("SELECT TOP 2 value FROM data")
        assert len(federation.cache) == 1
        federation.register(database_from_values("echo", [8500]))
        assert len(federation.cache) == 0
        outcome = federation.execute("SELECT TOP 2 value FROM data")
        assert not outcome.cached
        assert 8500.0 in outcome.values

    def test_deregister_invalidates(self, federation):
        federation.execute("SELECT MAX(value) FROM data")
        federation.deregister("bravo")  # bravo held the 9000 maximum
        outcome = federation.execute("SELECT MAX(value) FROM data")
        assert not outcome.cached
        assert outcome.values == (7000.0,)

    def test_data_mutation_invalidates(self, federation):
        federation.execute("SELECT MAX(value) FROM data")
        federation._parties["delta"].insert("data", {"value": 9999})
        outcome = federation.execute("SELECT MAX(value) FROM data")
        assert not outcome.cached
        assert outcome.values == (9999.0,)

    def test_explicit_invalidation(self, federation):
        federation.execute("SELECT MAX(value) FROM data")
        federation.cache.clear()
        outcome = federation.execute("SELECT MAX(value) FROM data")
        assert not outcome.cached


class TestSharedHitOutcome:
    """A repeat hit re-serves one frozen outcome, held with its cache entry."""

    STATEMENT = "SELECT TOP 2 value FROM data"

    def hit(self, fed, text=STATEMENT, **kwargs):
        outcome = fed.try_cached(text, **kwargs)
        assert outcome is not None and outcome.cached
        return outcome

    def test_repeat_hits_are_one_object_audited_one_by_one(self, federation):
        executed = federation.execute(self.STATEMENT)
        first = self.hit(federation, issuer="alice")
        assert first is not executed and first.values == executed.values
        assert self.hit(federation, issuer="bob") is first
        (batched,) = federation.execute_many([self.STATEMENT], issuer="carol")
        assert batched is first
        entries = federation.audit
        assert [e.issuer for e in entries] == ["anonymous", "alice", "bob", "carol"]
        assert [e.cached for e in entries] == [False, True, True, True]
        assert len({e.entry_id for e in entries}) == 4
        assert federation.cache.hits == 3

    @pytest.mark.parametrize(
        "change",
        [
            lambda fed: fed._parties["delta"].insert("data", {"value": 9999}),
            lambda fed: fed.register(database_from_values("echo", [8500])),
            lambda fed: fed.deregister("bravo"),
            lambda fed: fed.cache.clear(),
        ],
        ids=["insert", "register", "deregister", "invalidate"],
    )
    def test_any_invalidation_drops_the_outcome_with_the_answer(
        self, federation, change
    ):
        federation.execute(self.STATEMENT)
        stale = self.hit(federation)
        members = federation.members
        change(federation)
        assert federation.try_cached(self.STATEMENT) is None
        fresh = federation.execute(self.STATEMENT)
        assert not fresh.cached and fresh.rounds > 0
        renewed = self.hit(federation)
        assert renewed is not stale and renewed.values == fresh.values
        # Audit entries carry the membership of their own epoch.
        before, *_, after = federation.audit
        assert before.participants == members
        assert after.participants == federation.members == tuple(
            sorted(federation._parties)
        )

    def test_fifo_eviction_drops_the_outcome_with_the_answer(self):
        fed = fresh_federation(cache_entries=2)
        fed.execute(self.STATEMENT)
        stale = self.hit(fed)
        fed.execute_many(["SELECT MAX(value) FROM data", "SELECT MIN(value) FROM data"])
        assert fed.try_cached(self.STATEMENT) is None  # evicted, first in
        assert not fed.execute(self.STATEMENT).cached
        assert self.hit(fed) is not stale

    def test_spellings_share_the_entry_and_keep_their_text(self, federation):
        lower, upper = "select top 2 value from data", "SELECT TOP 2 value FROM data;"
        federation.execute(lower)
        hits = [self.hit(federation, text) for text in (lower, upper, lower, upper)]
        assert len(federation.cache) == 1
        assert hits[0] is hits[2] and hits[1] is hits[3]
        assert [h.statement for h in hits[:2]] == [lower, upper]
        assert hits[0].values == hits[1].values
        assert [e.statement for e in federation.audit[1:]] == [
            lower, upper, lower, upper,
        ]

    def test_a_denied_issuer_never_gets_the_shared_outcome(self):
        policy = AccessPolicy(quota_per_issuer=3).allow("alice", "TOP").allow(
            "bob", "TOP"
        )
        fed = fresh_federation(policy=policy)
        fed.execute(self.STATEMENT, issuer="alice")
        self.hit(fed, issuer="alice")
        self.hit(fed, issuer="bob")
        audited = len(fed.audit)
        for _ in range(2):
            with pytest.raises(PolicyViolation, match="not permitted"):
                fed.try_cached(self.STATEMENT, issuer="mallory")
        assert policy.usage("mallory") == 0
        self.hit(fed, issuer="alice")  # alice's third and last unit
        with pytest.raises(PolicyViolation, match="quota"):
            fed.try_cached(self.STATEMENT, issuer="alice")
        assert (policy.usage("alice"), policy.usage("bob")) == (3, 1)
        assert len(fed.audit) == audited + 1 and fed.cache.hits == 3


class TestBatchGating:
    def test_policy_checked_before_anything_runs(self):
        policy = AccessPolicy().allow("analyst", "SUM")
        fed = fresh_federation(policy=policy)
        with pytest.raises(PolicyViolation):
            fed.execute_many(
                ["SELECT SUM(value) FROM data", "SELECT TOP 2 value FROM data"],
                issuer="analyst",
            )
        # The permitted first statement must not have run either.
        assert len(fed.audit) == 0

    def test_parse_errors_abort_whole_batch(self, federation):
        with pytest.raises(SqlError):
            federation.execute_many(
                ["SELECT TOP 2 value FROM data", "DROP TABLE data"]
            )
        assert len(federation.audit) == 0

    def test_budget_refusal_aborts_at_refusing_statement(self):
        # Seed 0 is known to charge acme exposure 1.0 on this query, which a
        # tiny budget refuses.  The refused statement must leave no trace:
        # no audit entry, no cached answer an issuer could still read.
        fed = fresh_federation(seed=0, privacy_budget=1e-9)
        with pytest.raises(BudgetExceededError):
            fed.execute_many(["SELECT TOP 3 value FROM data"])
        assert len(fed.audit) == 0
        assert len(fed.cache) == 0

    def test_quorum_required(self):
        fed = Federation(domain=PAPER_DOMAIN, seed=3)
        fed.register(database_from_values("a", [1]))
        with pytest.raises(FederationError, match="n >= 3"):
            fed.execute_many(["SELECT MAX(value) FROM data"])


class TestIdentifierValidation:
    def test_underscored_identifiers_accepted(self, federation):
        # Valid-but-unusual identifiers parse and fail later only if the
        # table genuinely does not exist.
        with pytest.raises(Exception, match="no such table"):
            federation.execute("SELECT MAX(value_2) FROM _private_table")
