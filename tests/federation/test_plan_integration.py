"""SLO-carrying statements through the Federation execution paths."""

import pytest

from repro.database.database import database_from_values
from repro.database.query import PAPER_DOMAIN
from repro.federation import (
    Federation,
    FederationError,
    PlanInfeasible,
    QueryRefused,
)
from repro.planner import ECONOMY, QUALITY, parse_spec

DATASETS = {
    "acme": [100.0, 900.0, 250.0],
    "bravo": [9000.0, 40.0],
    "corex": [7000.0, 6500.0, 3.0],
    "delta": [5.0],
}


def fresh_federation(seed: int = 7, **kwargs) -> Federation:
    federation = Federation(domain=PAPER_DOMAIN, seed=seed, **kwargs)
    for owner, values in DATASETS.items():
        federation.register(database_from_values(owner, values))
    return federation


class TestExecuteWithSlo:
    def test_slo_statement_runs_and_matches_prediction_exactly(self):
        federation = fresh_federation()
        text = "SELECT TOP 3 value FROM data WITH SLO(deadline=5.0)"
        plan = federation.planner.plan(parse_spec(text), parties=4)
        outcome = federation.execute(text)
        assert outcome.values == (9000.0, 7000.0, 6500.0)
        assert outcome.rounds == plan.estimate.rounds
        assert outcome.messages == plan.estimate.messages
        assert outcome.simulated_seconds == pytest.approx(
            plan.estimate.simulated_seconds
        )

    def test_slo_overrides_the_base_config_parameters(self):
        federation = fresh_federation()
        constrained = federation.execute(
            "SELECT TOP 3 value FROM data WITH SLO(deadline=0.03)"
        )
        default = fresh_federation().execute("SELECT TOP 3 value FROM data")
        # 0.03 s at 4 parties and 1 ms hops caps the run at 6 rounds.
        assert constrained.rounds <= 6
        assert constrained.values == default.values

    def test_infeasible_slo_raises_typed_error(self):
        federation = fresh_federation()
        with pytest.raises(PlanInfeasible) as excinfo:
            federation.execute(
                "SELECT TOP 3 value FROM data WITH SLO(deadline=0.004)"
            )
        assert excinfo.value.reasons

    def test_additive_slo_statement_flows_secure_sum(self):
        federation = fresh_federation()
        outcome = federation.execute(
            "SELECT SUM(value) FROM data WITH SLO(deadline=1.0)"
        )
        assert outcome.values[0] == pytest.approx(sum(sum(v) for v in DATASETS.values()))
        assert outcome.simulated_seconds == 0.0


class TestSettledBatchPath:
    def test_infeasible_statement_is_refused_not_fatal(self):
        federation = fresh_federation()
        outcomes = federation.execute_many_settled(
            [
                "SELECT TOP 2 value FROM data",
                "SELECT TOP 3 value FROM data WITH SLO(deadline=0.004)",
                "SELECT MAX(value) FROM data",
            ]
        )
        assert outcomes[0].values == (9000.0, 7000.0)
        assert isinstance(outcomes[1], QueryRefused)
        assert isinstance(outcomes[1].error, PlanInfeasible)
        assert outcomes[2].values == (9000.0,)

    def test_refused_statements_never_draw_seeds(self):
        # Batch/sequential parity: an infeasible statement must not consume
        # a per-query seed, or surviving statements would change answers
        # relative to running them alone.
        alone = fresh_federation().execute("SELECT TOP 3 value FROM data")
        federation = fresh_federation()
        outcomes = federation.execute_many_settled(
            [
                "SELECT TOP 3 value FROM data WITH SLO(deadline=0.004)",
                "SELECT TOP 3 value FROM data",
            ]
        )
        assert isinstance(outcomes[0], QueryRefused)
        assert outcomes[1].values == alone.values
        assert outcomes[1].rounds == alone.rounds


class TestCacheCanonicalization:
    def test_slo_statement_shares_cache_with_bare_form(self):
        federation = fresh_federation()
        first = federation.execute("SELECT TOP 3 value FROM data")
        second = federation.execute(
            "SELECT TOP 3 value FROM data WITH SLO(deadline=5.0)"
        )
        assert second.cached
        assert second.values == first.values
        assert second.rounds == 0 and second.messages == 0

    def test_cached_answer_satisfies_even_an_infeasible_slo(self):
        # A cache hit costs zero rounds/messages/exposure: the already-
        # public answer satisfies any declared objective, so planning is
        # skipped entirely.
        federation = fresh_federation()
        federation.execute("SELECT TOP 3 value FROM data")
        outcome = federation.execute_many_settled(
            ["SELECT TOP 3 value FROM data WITH SLO(deadline=0.004)"]
        )[0]
        assert not isinstance(outcome, QueryRefused)
        assert outcome.cached


class TestModes:
    def test_a_downgraded_mode_runs_the_economy_plan(self):
        # The gateway hands a downgraded statement back only its objective;
        # the federation plans it again in that mode and runs that plan.
        federation = fresh_federation()
        text = "SELECT TOP 3 value FROM data WITH SLO(deadline=5.0)"
        quality = federation.plan_for(parse_spec(text))
        economy = federation.plan_for(parse_spec(text), ECONOMY)
        assert economy.estimate.rounds < quality.estimate.rounds
        outcome = federation.execute_many_settled([text], modes=[ECONOMY])[0]
        assert outcome.rounds == economy.estimate.rounds
        assert outcome.messages == economy.estimate.messages

    def test_modes_length_mismatch_rejected(self):
        federation = fresh_federation()
        with pytest.raises(FederationError):
            federation.execute_many_settled(
                ["SELECT TOP 2 value FROM data"], modes=[QUALITY, QUALITY]
            )


class TestThePlainPlan:
    def test_a_plain_statement_plans_as_its_base_configuration(self):
        # Nothing is chosen for a statement without objectives: its plan is
        # the configuration it runs on, estimated exactly.
        federation = fresh_federation()
        text = "SELECT TOP 3 value FROM data"
        plan = federation.plan_for(parse_spec(text))
        assert (plan.protocol, plan.params) == (
            federation.config.protocol, federation.config.params,
        )
        outcome = federation.execute(text)
        assert (outcome.rounds, outcome.messages) == (
            plan.estimate.rounds, plan.estimate.messages,
        )
