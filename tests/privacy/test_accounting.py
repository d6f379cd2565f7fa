"""Tests for session-level privacy accounting."""

import pytest

from repro.core.driver import NAIVE, RunConfig, run_protocol_on_vectors
from repro.database.database import database_from_values
from repro.database.query import Domain, PAPER_DOMAIN, TopKQuery
from repro.federation import Federation
from repro.privacy.accounting import ExposureLedger
from repro.privacy.dp import BudgetExhausted, SpendMeter

from ..conftest import make_vectors

QUERY = TopKQuery(table="t", attribute="a", k=1, domain=Domain(1, 10_000))


def naive_run(seed=0):
    # The naive protocol reliably produces non-zero exposure to charge.
    return run_protocol_on_vectors(
        make_vectors([100, 200, 9000, 50]), QUERY, RunConfig(protocol=NAIVE, seed=seed)
    )


class TestLedger:
    def test_budget_validated(self):
        with pytest.raises(ValueError, match="budget"):
            ExposureLedger(budget=0.0)

    def test_charges_accumulate(self):
        ledger = ExposureLedger()
        first = ledger.charge(naive_run(seed=1))
        ledger.charge(naive_run(seed=1))
        assert ledger.runs_charged == 2
        for node, increment in first.items():
            assert ledger.exposure(node) == pytest.approx(2 * increment)

    def test_unknown_party_has_zero_exposure(self):
        assert ExposureLedger().exposure("ghost") == 0.0

    def test_budget_refusal_is_atomic(self):
        ledger = ExposureLedger(budget=1.5)
        ledger.charge(naive_run(seed=1))  # starter charged 1.0
        def exposures():
            return {node: ledger.exposure(node) for node in ledger.meters}

        before = exposures()
        with pytest.raises(BudgetExhausted, match="exceed") as excinfo:
            ledger.charge(naive_run(seed=1))  # would push starter to 2.0
        assert excinfo.value.dimension == "lop"
        assert exposures() == before
        assert ledger.runs_charged == 1

    def test_landing_exactly_on_the_budget_is_admitted_like_every_meter(
        self, monkeypatch
    ):
        # 0.1 + 0.1 + 0.1 == 0.30000000000000004 > 0.3: exact exhaustion must
        # not depend on float noise, and LoP must answer as epsilon does.
        class Profile:
            peak = {"node0": 0.1}

        monkeypatch.setattr(
            "repro.privacy.accounting.exposure_profile", lambda result: Profile
        )
        ledger, meter = ExposureLedger(budget=0.3), SpendMeter(budget=0.3)
        for _ in range(3):
            assert not meter.would_exceed(0.1)
            meter.charge(0.1)
            ledger.charge(None)
        assert ledger.exposure("node0") == meter.spent > 0.3
        assert meter.refusal(0.0) is None
        assert meter.would_exceed(0.1)
        with pytest.raises(BudgetExhausted):
            ledger.charge(None)
        assert ledger.runs_charged == 3

class TestFederationIntegration:
    def _federation(self, budget):
        fed = Federation(
            domain=PAPER_DOMAIN,
            config=RunConfig(protocol=NAIVE),
            seed=4,
            privacy_budget=budget,
        )
        for name, values in (("a", [100]), ("b", [9000]), ("c", [50])):
            fed.register(database_from_values(name, values))
        return fed

    def test_queries_charge_the_ledger(self):
        fed = self._federation(budget=None)
        fed.execute("SELECT MAX(value) FROM data")
        assert fed.ledger.runs_charged == 1

    def test_budget_blocks_and_keeps_audit_clean(self):
        # Distinct statements: a repeat is a free cache hit, charged nothing.
        fed = self._federation(budget=1.5)
        fed.execute("SELECT MAX(value) FROM data")
        audited = len(fed.audit)
        served = []
        with pytest.raises(BudgetExhausted):
            for k in range(1, 11):
                served.append(fed.execute(f"SELECT TOP {k} value FROM data"))
        assert len(served) < 10
        assert len(fed.audit) == audited + len(served)  # the refusal left no entry

    def test_additive_queries_free(self):
        fed = self._federation(budget=0.001)
        fed.execute("SELECT SUM(value) FROM data")
        fed.execute("SELECT COUNT(value) FROM data")
        assert fed.ledger.runs_charged == 0
