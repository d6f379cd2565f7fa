"""DP query mode through the flat Federation: releases, reuse, refusals."""

import pytest

from repro.database.database import database_from_values
from repro.database.query import PAPER_DOMAIN, Domain
from repro.federation import Federation
from repro.federation.coordinator import QueryRefused
from repro.planner.errors import PlanInfeasible
from repro.privacy.dp import BudgetExhausted, DpError, DpPolicy

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


class TestReleases:
    def test_dp_release_perturbs_inside_the_domain(self):
        fed = fresh_federation(dp=DpPolicy(seed=1))
        exact = fresh_federation().execute("SELECT MAX(value) FROM data")
        noisy = fed.execute("SELECT MAX(value) FROM data WITH SLO(dp_epsilon=0.01)")
        assert noisy.protocol == f"{exact.protocol}+dp"
        assert noisy.values != exact.values  # epsilon this small must perturb
        assert all(PAPER_DOMAIN.low <= v <= PAPER_DOMAIN.high for v in noisy.values)
        assert fed.dp_gate.accountant.epsilon.spent == 0.01

    def test_dp_inherits_the_protocol_underneath(self):
        fed = fresh_federation(dp=DpPolicy(seed=1))
        outcome = fed.execute("SELECT TOP 3 value FROM data WITH SLO(dp_epsilon=4.0)")
        assert outcome.rounds > 0 and outcome.messages > 0
        assert len(outcome.values) == 3
        assert list(outcome.values) == sorted(outcome.values, reverse=True)

    def test_avg_decomposition_composes_one_charge(self):
        fed = fresh_federation(dp=DpPolicy(seed=1))
        outcome = fed.execute("SELECT AVG(value) FROM data WITH SLO(dp_epsilon=2.0)")
        assert outcome.protocol.endswith("+dp")
        # One DP statement, one ledger charge at the full declared epsilon —
        # the SUM/COUNT halves compose inside the release.
        assert fed.dp_gate.accountant.releases == 1
        assert fed.dp_gate.accountant.epsilon.spent == 2.0

    def test_rerun_same_seed_is_byte_identical(self):
        statements = [
            "SELECT MAX(value) FROM data WITH SLO(dp_epsilon=1.0)",
            "SELECT SUM(value) FROM data WITH SLO(dp_epsilon=0.5, dp_delta=1e-6)",
            "SELECT AVG(value) FROM data WITH SLO(dp_epsilon=2.0)",
        ]
        one = fresh_federation(dp=DpPolicy(seed=5)).execute_many_settled(statements)
        two = fresh_federation(dp=DpPolicy(seed=5)).execute_many_settled(statements)
        assert [o.values for o in one] == [o.values for o in two]
        other = fresh_federation(dp=DpPolicy(seed=6)).execute_many_settled(statements)
        assert [o.values for o in one] != [o.values for o in other]

    def test_dp_noise_stream_does_not_perturb_plain_draws(self):
        # Enabling DP must not shift the protocol's own seed derivation.
        plain = fresh_federation().execute("SELECT TOP 3 value FROM data")
        with_dp = fresh_federation(dp=DpPolicy(seed=99)).execute(
            "SELECT TOP 3 value FROM data"
        )
        assert with_dp.values == plain.values
        assert with_dp.rounds == plain.rounds


class TestReuse:
    # The reuse rules that hold on every topology — repeat is free, try_cached
    # never charges, mutated data is a fresh release, an exhausted budget
    # refuses — live in test_dp_release_rules.py, run flat and sharded.

    def test_cache_drop_over_unchanged_data_re_serves_free(self):
        # Dropping the cache re-executes the inner statement, but over the
        # same data it returns the same exact answer, which keys the same
        # noise: the repeat is the already-public release, uncharged.
        fed = fresh_federation(dp=DpPolicy(seed=2))
        text = "SELECT COUNT(value) FROM data WITH SLO(dp_epsilon=0.2)"
        first = fed.execute(text)
        fed.cache.clear()
        second = fed.execute(text)
        assert second.values == first.values
        assert second.cached
        assert fed.dp_gate.accountant.releases == 1
        assert fed.dp_gate.accountant.free_serves == 1
        assert fed.dp_gate.accountant.epsilon.spent == pytest.approx(0.2)


class TestRefusals:
    def test_budget_exhausted_is_typed_and_distinct_from_plan_infeasible(self):
        fed = fresh_federation(dp=DpPolicy(epsilon_budget=1.0, seed=3))
        fed.execute("SELECT MAX(value) FROM data WITH SLO(dp_epsilon=0.8)")
        with pytest.raises(BudgetExhausted) as excinfo:
            fed.execute("SELECT MIN(value) FROM data WITH SLO(dp_epsilon=0.8)")
        assert not isinstance(excinfo.value, PlanInfeasible)
        assert "epsilon budget exhausted" in str(excinfo.value)

    def test_settled_batch_refuses_per_statement(self):
        fed = fresh_federation(dp=DpPolicy(epsilon_budget=2.0, seed=3))
        results = fed.execute_many_settled(
            [
                "SELECT MAX(value) FROM data WITH SLO(dp_epsilon=1.5)",
                "SELECT MIN(value) FROM data WITH SLO(dp_epsilon=1.5)",  # over
                "SELECT SUM(value) FROM data WITH SLO(dp_epsilon=0.5)",  # fits
            ]
        )
        assert not isinstance(results[0], QueryRefused)
        assert isinstance(results[1], QueryRefused)
        assert isinstance(results[1].error, BudgetExhausted)
        assert not isinstance(results[2], QueryRefused)
        # The refused statement spent nothing.
        assert fed.dp_gate.accountant.epsilon.spent == 2.0
        assert fed.dp_gate.accountant.refusals == 1

    def test_budget_exactly_exhausted_on_the_last_round_succeeds(self):
        fed = fresh_federation(dp=DpPolicy(epsilon_budget=3.0, seed=3))
        fed.execute("SELECT MAX(value) FROM data WITH SLO(dp_epsilon=2.0)")
        last = fed.execute("SELECT SUM(value) FROM data WITH SLO(dp_epsilon=1.0)")
        assert not isinstance(last, QueryRefused)
        assert fed.dp_gate.accountant.epsilon.spent == 3.0
        assert fed.dp_gate.accountant.epsilon.refusal(0.0) is None
        with pytest.raises(BudgetExhausted):
            fed.execute("SELECT COUNT(value) FROM data WITH SLO(dp_epsilon=0.1)")

    def test_zero_noise_calibration_refuses_end_to_end(self):
        # exp(-800) underflows: the geometric mechanism would release the
        # exact count.  The whole query must refuse typed, not leak.
        fed = fresh_federation(dp=DpPolicy(seed=3))
        with pytest.raises(DpError, match="zero-noise"):
            fed.execute("SELECT COUNT(value) FROM data WITH SLO(dp_epsilon=800.0)")
        results = fed.execute_many_settled(
            ["SELECT COUNT(value) FROM data WITH SLO(dp_epsilon=800.0)"]
        )
        assert isinstance(results[0], QueryRefused)
        assert isinstance(results[0].error, DpError)
        assert fed.dp_gate.accountant.releases == 0

    def test_per_attribute_domain_overrides_the_calibration(self):
        # The mechanism calibrates to the *attribute's* declared domain;
        # a narrower override shrinks the clamp range of the release.
        fed = Federation(domain=PAPER_DOMAIN, seed=7, dp=DpPolicy(seed=1))
        fed.register_domain("data", "value", Domain(1, 100))
        for owner, values in {"a": [10, 90], "b": [25, 3], "c": [99]}.items():
            fed.register(database_from_values(owner, values))
        outcome = fed.execute(
            "SELECT TOP 3 value FROM data WITH SLO(dp_epsilon=0.001)"
        )
        assert all(1.0 <= v <= 100.0 for v in outcome.values)


class TestBatchParity:
    def test_batch_matches_sequential_execution(self):
        statements = [
            "SELECT TOP 2 value FROM data",
            "SELECT MAX(value) FROM data WITH SLO(dp_epsilon=1.0)",
            "SELECT SUM(value) FROM data",
            "SELECT AVG(value) FROM data WITH SLO(dp_epsilon=2.0)",
        ]
        batched = fresh_federation(dp=DpPolicy(seed=4)).execute_many_settled(statements)
        sequential_fed = fresh_federation(dp=DpPolicy(seed=4))
        sequential = [
            sequential_fed.execute(s) for s in statements
        ]
        assert [o.values for o in batched] == [o.values for o in sequential]
