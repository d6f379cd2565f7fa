"""Tests for session-level privacy accounting."""

import random
from dataclasses import replace

import pytest

from repro.core import driver
from repro.core.driver import NAIVE, RunConfig, run_protocol_on_vectors
from repro.database.database import database_from_values
from repro.database.query import Domain, PAPER_DOMAIN, TopKQuery
from repro.federation import Federation, QueryRefused
from repro.planner.plan import expected_lop
from repro.planner.spec import prepare
from repro.privacy.accounting import ExposureLedger
from repro.privacy.dp import BudgetExhausted, DpPolicy, PendingBudget, SpendMeter

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
        # The ledger refuses at admission, through its meters: a draw that
        # does not fit moves no meter and records nothing.  An admitted run
        # has each meter charged what it was drawn (the release path's
        # charge), and its measured exposure is recorded in full, even when
        # that ends past the budget.
        ledger = ExposureLedger(budget=1.5)
        run = naive_run(seed=1)
        parties = sorted(run.local_vectors)
        for node in parties:
            ledger.meter(node).charge(1.0)
        first = ledger.charge(run)
        (starter,) = [node for node, spent in first.items() if spent == 1.0]

        def books():
            spent = {node: meter.spent for node, meter in ledger.meters.items()}
            return dict(ledger.exposures), spent, ledger.runs_charged

        before = books()
        assert before[1] == dict.fromkeys(parties, 1.0)
        draws = [(ledger.meter(node), 0.75, ("TOP", 2)) for node in parties]
        refusal = PendingBudget().refusal(draws)
        assert refusal is not None and refusal.dimension == "lop"
        assert str(refusal) == str(
            SpendMeter(1.5, 1.0, holder=f"party {parties[0]!r}").refusal(0.75)
        )
        assert books() == before
        ledger.charge(naive_run(seed=1))  # pushes the starter's record to 2.0
        assert ledger.exposure(starter) == 2.0 > ledger.budget
        assert ledger.meter(starter).spent == 1.0  # nothing drawn, nothing charged
        assert ledger.runs_charged == 2

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
            assert ledger.meter("node0").refusal(0.1) is None
            meter.charge(0.1)
            ledger.meter("node0").charge(0.1)
            ledger.charge(None)
        assert ledger.exposure("node0") == meter.spent > 0.3
        assert ledger.meter("node0").spent == meter.spent
        assert meter.refusal(0.0) is None
        assert meter.would_exceed(0.1)
        refusal = ledger.meter("node0").refusal(0.1)
        assert isinstance(refusal, BudgetExhausted) and refusal.dimension == "lop"
        # Recording what ran never refuses.
        ledger.charge(None)
        assert ledger.runs_charged == 4

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


class TestAdmittedBeforeTheRing:
    """A flat ``privacy_budget`` admits a ranking statement before its ring
    runs, on its plan's expected LoP (0.25 for every k over four parties on
    the base configuration), charges each party's meter that amount after
    the run, and records each party's measured exposure beside it."""

    def _federation(self, budget, dp=None):
        rng = random.Random(3)
        fed = Federation(domain=PAPER_DOMAIN, seed=1, privacy_budget=budget, dp=dp)
        for name in ("p0", "p1", "p2", "p3"):
            values = [rng.randint(1, 10_000) for _ in range(20)]
            fed.register(database_from_values(name, values))
        return fed

    @staticmethod
    def _books(fed):
        return (
            fed._draw_index,
            fed.ledger.runs_charged,
            list(fed.audit),
            len(fed.cache),
            {party: fed.ledger.exposure(party) for party in fed.members},
            {party: fed.ledger.meter(party).spent for party in fed.members},
        )

    @pytest.fixture
    def rings(self, monkeypatch):
        """How many rings ran: one per statement ``run_topk_queries`` gets."""
        ran = []
        real = driver.run_topk_queries

        def counting(databases, queries, *args, **kwargs):
            ran.extend(queries)
            return real(databases, queries, *args, **kwargs)

        monkeypatch.setattr("repro.federation.coordinator.run_topk_queries", counting)
        return ran

    def test_a_refused_statement_runs_no_ring_and_moves_nothing(self, rings):
        fed = self._federation(0.3)
        # What every k draws per party: the base configuration's expected LoP.
        spec = prepare("SELECT TOP 2 value FROM data").spec
        lop = expected_lop(spec, None, fed.plan_for)
        assert lop == 0.25
        first = fed.execute("SELECT TOP 1 value FROM data")
        # Admitted on 0.25 and charged 0.25 per party; its measured exposure
        # is recorded in full, past the budget.
        assert len(rings) == 1 and fed.ledger.runs_charged == 1
        assert {p: fed.ledger.meter(p).spent for p in fed.members} == dict.fromkeys(
            fed.members, 0.25
        )
        assert fed.ledger.exposure("p0") == 1.0 > fed.ledger.budget
        before = self._books(fed)
        for _ in range(2):  # the retry is refused again
            refused = fed.execute_many_settled(["SELECT TOP 2 value FROM data"])[0]
            assert isinstance(refused, QueryRefused)
            error = refused.error
            assert type(error) is BudgetExhausted and error.dimension == "lop"
            assert str(error) == str(
                SpendMeter(0.3, lop, holder="party 'p0'").refusal(lop)
            )
            assert self._books(fed) == before
            assert len(rings) == 1
        # The answered statement is still a free hit.
        assert fed.execute("SELECT TOP 1 value FROM data").values == first.values

    def test_a_budget_below_the_expected_lop_refuses_before_any_seed(self, rings):
        fed = self._federation(0.2)
        for k in (1, 2):
            refused = fed.execute_many_settled([f"SELECT TOP {k} value FROM data"])[0]
            assert type(refused.error) is BudgetExhausted
        nothing = dict.fromkeys(fed.members, 0.0)
        assert self._books(fed) == (0, 0, [], 0, nothing, nothing)
        assert rings == []

    def test_a_ring_whose_release_is_refused_is_charged(self, rings):
        # A DP release admitted on optimistic reuse runs its ring over changed
        # data, then cannot pay for the fresh release: the ring's successors
        # saw the vectors, so every party's meter is charged its draw anyway.
        fed = self._federation(1.0, dp=DpPolicy(epsilon_budget=3.0, seed=5))
        text = "SELECT MAX(value) FROM data WITH SLO(dp_epsilon=2.0)"
        assert not fed.execute(text).cached
        draw = fed.ledger.meter("p0").spent
        assert draw > 0 and self._books(fed)[-1] == dict.fromkeys(fed.members, draw)
        fed._parties["p0"].insert("data", {"value": 10_000})
        refused = fed.execute_many_settled([text])[0]
        assert type(refused.error) is BudgetExhausted
        assert refused.error.dimension == "epsilon"
        assert len(rings) == 2
        assert fed.dp_gate.snapshot()["epsilon_spent"] == 2.0
        assert self._books(fed)[-1] == dict.fromkeys(fed.members, 2 * draw)

    def test_landing_exactly_on_the_expected_lop_is_admitted(self, rings):
        fed = self._federation(0.25)
        assert not fed.execute("SELECT TOP 1 value FROM data").cached
        assert len(rings) == 1

    @pytest.mark.parametrize("budget", [0.3, 0.5, 0.6])
    def test_a_batch_is_admitted_as_its_statements_one_at_a_time(self, budget):
        # Each meter holds one amount, the expected LoP it was drawn, so an
        # earlier statement weighs the same on a later one's admission in a
        # batch as after its run; the measured record plays no part.
        statements = [
            "SELECT TOP 1 value FROM data",
            "SELECT TOP 2 value FROM data",
            "SELECT TOP 1 value FROM data",
            "SELECT TOP 3 value FROM data",
        ]
        batched = self._federation(budget)
        sequential = self._federation(budget)
        together = batched.execute_many_settled(statements)
        alone = [sequential.execute_many_settled([s])[0] for s in statements]

        def settled(outcomes):
            return [
                (type(o.error), str(o.error)) if isinstance(o, QueryRefused)
                else (o.values, o.cached)
                for o in outcomes
            ]

        def books(fed):
            draws, runs, audit, *rest = self._books(fed)
            return draws, runs, [replace(e, entry_id=0) for e in audit], *rest

        assert settled(together) == settled(alone)
        assert books(batched) == books(sequential)
        served = sum(not isinstance(o, QueryRefused) for o in alone)
        assert served == {0.3: 2, 0.5: 3, 0.6: 3}[budget]
