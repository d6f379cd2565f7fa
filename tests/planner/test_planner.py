"""Plan enumeration, selection policy, feasibility, and explain output."""

import sys
import threading

import pytest

from repro.planner import (
    ECONOMY,
    NAIVE,
    PROBABILISTIC,
    SECURE_SUM,
    PlanInfeasible,
    QueryPlanner,
    parse_spec,
)


def plan_for(text: str, *, parties: int = 5, mode: str = "quality", **kwargs):
    return QueryPlanner(**kwargs).plan(text, parties=parties, mode=mode)


class TestRankingSelection:
    def test_default_plan_is_probabilistic_paper_quality(self):
        plan = plan_for("SELECT TOP 5 value FROM data WITH SLO(deadline=5.0)")
        assert plan.protocol == PROBABILISTIC
        assert plan.params is not None
        assert plan.estimate.rounds == plan.params.resolved_rounds()
        assert plan.candidates_considered > 1

    def test_quality_mode_minimizes_expected_lop_first(self):
        quality = plan_for(
            "SELECT TOP 3 value FROM data WITH SLO(deadline=10.0)"
        )
        economy = plan_for(
            "SELECT TOP 3 value FROM data WITH SLO(deadline=10.0)",
            mode=ECONOMY,
        )
        assert quality.estimate.expected_lop <= economy.estimate.expected_lop
        assert economy.estimate.messages <= quality.estimate.messages

    def test_naive_needs_explicit_exposure_consent(self):
        # Without a declared max_lop (or protocol=naive), the planner must
        # never choose the naive protocol: an undeclared budget is not
        # consent to the worst-case exposure.
        plan = plan_for(
            "SELECT TOP 3 value FROM data WITH SLO(deadline=10.0)",
            mode=ECONOMY,
        )
        assert plan.protocol == PROBABILISTIC

    def test_naive_chosen_when_forced(self):
        plan = plan_for(
            "SELECT TOP 3 value FROM data WITH SLO(protocol=naive)"
        )
        assert plan.protocol == NAIVE
        assert plan.estimate.rounds == 1

    def test_economy_picks_naive_when_lop_budget_fits(self):
        # n=5: naive exposure (n-1)/n... well above any tight budget; use a
        # generous budget so naive's Eq. 5 exposure fits, then economy mode
        # should prefer its 2n messages.
        plan = plan_for(
            "SELECT TOP 3 value FROM data WITH SLO(max_lop=0.9)",
            mode=ECONOMY,
        )
        assert plan.protocol == NAIVE
        assert plan.estimate.messages == 10

    def test_deadline_translates_to_a_round_budget(self):
        # deadline / (n * hop) - 1 rounds; a 0.02 s deadline at n=5 and
        # 1 ms hops leaves 3 rounds.
        plan = plan_for(
            "SELECT TOP 3 value FROM data "
            "WITH SLO(deadline=0.02, epsilon=0.01)"
        )
        assert plan.estimate.rounds <= 3
        assert plan.estimate.simulated_seconds <= 0.02

    def test_infeasible_deadline_raises_with_reasons(self):
        with pytest.raises(PlanInfeasible) as excinfo:
            plan_for("SELECT TOP 3 value FROM data WITH SLO(deadline=0.004)")
        assert excinfo.value.reasons
        assert "SELECT TOP 3" in (excinfo.value.statement or "")

    def test_too_few_parties_is_infeasible(self):
        with pytest.raises(PlanInfeasible):
            plan_for(
                "SELECT TOP 3 value FROM data WITH SLO(deadline=1.0)",
                parties=2,
            )


class TestPlanStatesOnlyWhatThePlannerKnows:
    def test_a_plan_names_no_executor(self):
        # Which executor replays the protocol is the driver's decision, made
        # from the run's config and batch size; a plan that printed one
        # would be guessing (it printed "batch-kernel" for scalar-kernel runs).
        for text in TestDeterminism.STATEMENTS:
            plan = plan_for(text)
            assert not hasattr(plan, "backend")
            assert "backend" not in plan.to_dict()
            assert "backend" not in plan.explain()


class TestAdditivePlans:
    def test_sum_uses_secure_sum_on_session(self):
        plan = plan_for("SELECT SUM(value) FROM data WITH SLO(deadline=1.0)")
        assert plan.protocol == SECURE_SUM
        assert plan.estimate.expected_lop == 0.0

    def test_additive_rejects_ranking_only_clauses(self):
        with pytest.raises(PlanInfeasible):
            plan_for("SELECT SUM(value) FROM data WITH SLO(epsilon=0.01)")
        with pytest.raises(PlanInfeasible):
            plan_for(
                "SELECT AVG(value) FROM data WITH SLO(protocol=probabilistic)"
            )


class TestDeterminism:
    STATEMENTS = (
        "SELECT TOP 5 value FROM data WITH SLO(deadline=5.0)",
        "SELECT BOTTOM 2 value FROM data WITH SLO(max_lop=0.5)",
        "SELECT MAX(value) FROM data WITH SLO(deadline=1.0, max_rounds=4)",
        "SELECT SUM(value) FROM data WITH SLO(deadline=1.0)",
        "SELECT AVG(value) FROM data WITH SLO(deadline=1.0)",
        "SELECT COUNT(value) FROM data WITH SLO(max_lop=1.0)",
        "SELECT MIN(value) FROM data WITH SLO(protocol=naive)",
    )

    def test_explain_is_deterministic_for_every_statement_shape(self):
        for text in self.STATEMENTS:
            first = plan_for(text).explain()
            second = plan_for(text).explain()
            assert first == second
            assert "plan:" in first or "estimate" in first or first  # non-empty

    def test_to_dict_round_trips_through_spec_reparse(self):
        for text in self.STATEMENTS:
            plan = plan_for(text)
            data = plan.to_dict()
            assert data["statement"] == parse_spec(text).statement.text
            assert data["rounds"] == plan.estimate.rounds
            assert data["messages"] == plan.estimate.messages

    def test_same_spec_same_plan_object_fields(self):
        a = plan_for(self.STATEMENTS[0])
        b = plan_for(self.STATEMENTS[0])
        assert a.to_dict() == b.to_dict()


class TestPlanOncePerShape:
    """A planner computes its choice once per (operation, k, SLO, parties,
    mode); table and attribute never enter it."""

    SLOS = ("deadline=5.0", "max_lop=0.5", "max_rounds=12", "deadline=5.0, max_lop=0.5")
    TEMPLATES = (
        "SELECT TOP {k} value FROM {table} WITH SLO({slo})",
        "SELECT BOTTOM {k} value FROM {table} WITH SLO({slo})",
        "SELECT MAX(value) FROM {table} WITH SLO({slo})",
        "SELECT SUM(value) FROM {table} WITH SLO({slo})",
    )

    @staticmethod
    def counted(planner):
        """``planner`` with its two choosers counting their calls."""
        calls = []
        for name in ("_plan_ranking", "_plan_additive"):
            chooser = getattr(planner, name)

            def counting(spec, *, _chooser=chooser, **kwargs):
                calls.append(spec.statement.text)
                return _chooser(spec, **kwargs)

            setattr(planner, name, counting)
        return calls

    def stream(self):
        return [
            template.format(k=k, table=f"t{table:02d}", slo=slo)
            for table in range(12)
            for template in self.TEMPLATES
            for k in (1, 3)
            for slo in self.SLOS
            if k == 1 or "{k}" in template
        ]

    def test_a_stream_over_many_tables_computes_each_shape_once(self):
        planner = QueryPlanner()
        calls = self.counted(planner)
        texts = self.stream()
        shapes = set()
        for parties in (4, 5):
            for text in texts + texts:
                plan = planner.plan(text, parties=parties)
                assert plan == QueryPlanner().plan(text, parties=parties)
                assert plan.statement == parse_spec(text).statement.text
                spec = parse_spec(text)
                shapes.add(
                    (spec.statement.operation, spec.statement.k, spec.slo, parties)
                )
        assert len(texts) == 12 * 24
        assert len(calls) == len(shapes) == 2 * 24

    def test_mode_is_part_of_the_shape(self):
        planner = QueryPlanner()
        calls = self.counted(planner)
        text = "SELECT TOP 3 value FROM data WITH SLO(max_lop=0.5)"
        for mode in ("quality", ECONOMY, "quality", ECONOMY):
            assert planner.plan(text, parties=5, mode=mode) == plan_for(text, mode=mode)
        assert len(calls) == 2

    def test_a_refusal_is_recomputed_and_names_its_own_statement(self):
        planner = QueryPlanner()
        calls = self.counted(planner)
        for table in ("a", "b", "a"):
            text = f"SELECT TOP 3 value FROM {table} WITH SLO(deadline=0.004)"
            with pytest.raises(PlanInfeasible) as caught:
                planner.plan(text, parties=5)
            assert caught.value.statement == f"SELECT TOP 3 value FROM {table}"
        assert len(calls) == 3

    def test_the_least_recently_used_shape_goes_first(self, monkeypatch):
        from repro.planner import planner as planner_module

        monkeypatch.setattr(planner_module, "PLAN_ENTRIES", 2)
        planner = QueryPlanner()
        calls = self.counted(planner)
        first, second, third = (f"SELECT TOP {k} value FROM data" for k in (1, 2, 3))
        for text in (first, second, first, third, first, second):
            planner.plan(f"{text} WITH SLO(deadline=5.0)", parties=5)
        # ``second`` was evicted by ``third``; ``first`` stayed in use.
        assert calls == [first, second, third, second]

    def test_threads_sharing_a_planner_get_fresh_plans(self, monkeypatch):
        from repro.planner import planner as planner_module

        # A bound far below the shapes in flight keeps every thread evicting.
        monkeypatch.setattr(planner_module, "PLAN_ENTRIES", 4)
        planner = QueryPlanner()
        texts = self.stream()[:48]
        expected = {text: QueryPlanner().plan(text, parties=5) for text in texts}
        errors = []

        def worker(offset):
            try:
                for i in range(len(texts) * 4):
                    text = texts[(i + offset) % len(texts)]
                    assert planner.plan(text, parties=5) == expected[text]
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(7 * n,)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(planner._plans) <= 4
