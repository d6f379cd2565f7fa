"""Unit tests for the DP mechanisms, the SpendMeter, and the accountant."""

import random

import pytest

from repro.database.query import Domain
from repro.planner.errors import PlanInfeasible
from repro.planner.spec import parse_spec, strip_dp
from repro.privacy.dp import (
    SPEND_TOLERANCE,
    BudgetExhausted,
    DpError,
    DpGate,
    DpPolicy,
    GeometricMechanism,
    LaplaceMechanism,
    PrivacyAccountant,
    SpendMeter,
    build_request,
    calibrate_mechanism,
    sensitivity_for,
)

INT_DOMAIN = Domain(0, 1000, integral=True)
REAL_DOMAIN = Domain(0.0, 1000.0, integral=False)


# -- mechanisms ---------------------------------------------------------------


class TestMechanisms:
    def test_laplace_draws_are_deterministic_per_seed(self):
        mech = LaplaceMechanism(scale=2.0)
        one = [mech.draw(random.Random(5)) for _ in range(10)]
        two = [mech.draw(random.Random(5)) for _ in range(10)]
        assert one == two

    def test_laplace_is_centered_with_the_declared_scale(self):
        mech = LaplaceMechanism(scale=3.0)
        rng = random.Random(0)
        draws = [mech.draw(rng) for _ in range(20_000)]
        assert abs(sum(draws) / len(draws)) < 0.2
        # Mean absolute deviation of Laplace(b) is b.
        mad = sum(abs(d) for d in draws) / len(draws)
        assert mad == pytest.approx(3.0, rel=0.1)

    def test_geometric_draws_are_integers(self):
        mech = GeometricMechanism(alpha=0.5)
        rng = random.Random(1)
        draws = [mech.draw(rng) for _ in range(1000)]
        assert all(float(d).is_integer() for d in draws)
        assert any(d != 0 for d in draws)

    def test_geometric_zero_mass_matches_alpha(self):
        alpha = 0.6
        mech = GeometricMechanism(alpha=alpha)
        rng = random.Random(2)
        draws = [mech.draw(rng) for _ in range(50_000)]
        zero_fraction = sum(1 for d in draws if d == 0) / len(draws)
        assert zero_fraction == pytest.approx((1 - alpha) / (1 + alpha), abs=0.02)


class TestCalibration:
    def test_integral_domains_get_the_geometric_mechanism(self):
        mech = calibrate_mechanism(1.0, 1.0, integral=True)
        assert isinstance(mech, GeometricMechanism)

    def test_continuous_domains_get_laplace_at_sensitivity_over_epsilon(self):
        mech = calibrate_mechanism(10.0, 2.0, integral=False)
        assert isinstance(mech, LaplaceMechanism)
        assert mech.scale == 5.0

    def test_zero_noise_calibration_refuses_typed(self):
        # exp(-800/1) underflows to exactly 0.0: the geometric mechanism
        # would release the exact value while claiming DP.
        with pytest.raises(DpError, match="zero-noise"):
            calibrate_mechanism(1.0, 800.0, integral=True)

    def test_degenerate_inputs_refuse(self):
        with pytest.raises(DpError):
            calibrate_mechanism(0.0, 1.0, integral=False)
        with pytest.raises(DpError):
            calibrate_mechanism(1.0, 0.0, integral=True)
        with pytest.raises(DpError):
            calibrate_mechanism(float("inf"), 1.0, integral=False)


class TestSensitivity:
    def test_count_sum_and_ranking(self):
        domain = Domain(-50, 200, integral=True)
        count = parse_spec("SELECT COUNT(value) FROM data").statement
        total = parse_spec("SELECT SUM(value) FROM data").statement
        top3 = parse_spec("SELECT TOP 3 value FROM data").statement
        assert sensitivity_for(count, domain) == 1.0
        assert sensitivity_for(total, domain) == 200.0  # largest magnitude
        assert sensitivity_for(top3, domain) == 3.0 * 250.0  # k * width

    def test_avg_has_no_direct_sensitivity(self):
        avg = parse_spec("SELECT AVG(value) FROM data").statement
        with pytest.raises(DpError, match="AVG decomposes"):
            sensitivity_for(avg, INT_DOMAIN)


# -- the shared SpendMeter ----------------------------------------------------


class TestSpendMeter:
    def test_unbudgeted_meter_never_refuses(self):
        meter = SpendMeter()
        assert not meter.would_exceed(1e18)
        meter.charge(42.0)
        assert meter.spent == 42.0

    def test_exact_exhaustion_is_admitted(self):
        # Landing exactly on the budget must pass: "budget exactly
        # exhausted on the last round" is a success, not a refusal.
        meter = SpendMeter(budget=3.0)
        meter.charge(1.5)
        assert not meter.would_exceed(1.5)
        meter.charge(1.5)
        assert meter.spent == 3.0
        assert meter.refusal(0.0) is None
        assert meter.would_exceed(SPEND_TOLERANCE * 10)

    def test_overshoot_beyond_tolerance_refuses(self):
        meter = SpendMeter(budget=1.0)
        assert meter.would_exceed(1.0 + 1e-6)
        assert not meter.would_exceed(1.0 + 1e-12)  # float noise is forgiven

    def test_negative_charges_are_rejected(self):
        with pytest.raises(ValueError):
            SpendMeter().charge(-0.1)


# -- the accountant -----------------------------------------------------------


class TestPrivacyAccountant:
    def test_basic_composition_sums_both_dimensions(self):
        accountant = PrivacyAccountant(epsilon_budget=10.0, delta_budget=1e-3)
        accountant.charge(2.0, 1e-6, statement="a")
        accountant.charge(3.0, 2e-6, statement="b")
        assert accountant.epsilon.spent == 5.0
        assert accountant.delta.spent == pytest.approx(3e-6)
        assert accountant.releases == 2
        assert accountant.ledger_lines() == [
            "a eps=2 delta=1e-06",
            "b eps=3 delta=2e-06",
        ]

    def test_pure_epsilon_mode_delta_budget_zero(self):
        # delta_budget=0.0 is the pure-epsilon regime: delta=0 releases
        # compose freely, any delta>0 release refuses on the delta axis.
        accountant = PrivacyAccountant(epsilon_budget=10.0, delta_budget=0.0)
        accountant.charge(1.0, 0.0, statement="pure")
        with pytest.raises(BudgetExhausted, match="delta budget") as excinfo:
            accountant.charge(1.0, 1e-6, statement="approx")
        assert excinfo.value.dimension == "delta"

    def test_refuses_before_recording(self):
        accountant = PrivacyAccountant(epsilon_budget=1.0)
        accountant.charge(0.8, 0.0, statement="ok")
        with pytest.raises(BudgetExhausted):
            accountant.charge(0.5, 0.0, statement="over")
        # The refused charge left every meter and the ledger untouched.
        assert accountant.epsilon.spent == 0.8
        assert accountant.releases == 1
        assert accountant.refusals == 1
        assert accountant.ledger_lines() == ["ok eps=0.8 delta=0"]

    def test_budget_exhausted_is_not_plan_infeasible(self):
        # The typed refusal contract: budget exhaustion is the root of its
        # own family (LoP refuses with it too), never a DpError or a planner
        # infeasibility.
        assert not issubclass(BudgetExhausted, DpError)
        assert not issubclass(BudgetExhausted, PlanInfeasible)
        with pytest.raises(BudgetExhausted):
            PrivacyAccountant(epsilon_budget=0.5).charge(1.0, 0.0, statement="s")

    def test_invalid_budgets_are_rejected(self):
        with pytest.raises(DpError):
            PrivacyAccountant(epsilon_budget=-1.0)
        with pytest.raises(DpError):
            PrivacyAccountant(delta_budget=1.0)

    def test_snapshot_shape(self):
        accountant = PrivacyAccountant(epsilon_budget=4.0)
        accountant.charge(1.0, 0.0, statement="s")
        accountant.note_free_serve()
        snap = accountant.snapshot()
        assert snap["epsilon_spent"] == 1.0
        assert snap["epsilon_budget"] == 4.0
        assert snap["delta_budget"] is None
        assert snap["releases"] == 1
        assert snap["free_serves"] == 1


# -- request resolution and the gate ------------------------------------------


class TestBuildRequest:
    def test_non_dp_specs_resolve_to_none(self):
        assert build_request(parse_spec("SELECT MAX(value) FROM data"), INT_DOMAIN) is None

    def test_strip_dp_removes_only_the_dp_keys(self):
        spec = parse_spec(
            "SELECT TOP 2 value FROM data "
            "WITH SLO(deadline=5.0, dp_epsilon=1.0, dp_delta=1e-6)"
        )
        inner = strip_dp(spec)
        assert "dp_epsilon" not in inner and "dp_delta" not in inner
        assert "deadline=5" in inner
        bare = strip_dp(parse_spec("SELECT TOP 2 value FROM data WITH SLO(dp_epsilon=1.0)"))
        assert bare == "SELECT TOP 2 value FROM data"

    def test_dp_without_a_domain_refuses(self):
        spec = parse_spec("SELECT MAX(value) FROM data WITH SLO(dp_epsilon=1.0)")
        with pytest.raises(DpError, match="requires a declared domain"):
            build_request(spec, None)

    def test_avg_decomposes_to_sum_and_count_at_half_budget(self):
        spec = parse_spec("SELECT AVG(value) FROM data WITH SLO(dp_epsilon=2.0)")
        request = build_request(spec, REAL_DOMAIN)
        assert request.inner_texts == (
            "SELECT SUM(value) FROM data",
            "SELECT COUNT(value) FROM data",
        )
        sum_mech, count_mech = (i.mechanism for i in request.inner)
        assert isinstance(sum_mech, LaplaceMechanism)
        assert sum_mech.scale == 1000.0  # sensitivity 1000 / (eps/2 = 1)
        assert isinstance(count_mech, GeometricMechanism)  # counts are integral

    def test_same_statement_same_budget_shares_one_key(self):
        a = build_request(
            parse_spec("SELECT MAX(value) FROM data WITH SLO(dp_epsilon=1.0)"), INT_DOMAIN
        )
        b = build_request(
            parse_spec("SELECT MAX(value) FROM data WITH SLO(dp_epsilon=1.0)"), INT_DOMAIN
        )
        c = build_request(
            parse_spec("SELECT MAX(value) FROM data WITH SLO(dp_epsilon=2.0)"), INT_DOMAIN
        )
        assert a.key == b.key
        assert a.key != c.key


class TestDpGate:
    @staticmethod
    def _request(text="SELECT COUNT(value) FROM data WITH SLO(dp_epsilon=1.0)"):
        return build_request(parse_spec(text), INT_DOMAIN)

    def test_fresh_release_charges_repeat_over_cache_is_free(self):
        gate = DpGate(DpPolicy(seed=3))
        request = self._request()
        first, charged = gate.finalize(request, [(7.0,)])
        assert charged
        again, charged_again = gate.finalize(request, [(7.0,)])
        assert not charged_again
        assert again == first  # byte-identical replay of the same release
        assert gate.accountant.releases == 1
        assert gate.accountant.free_serves == 1
        assert gate.accountant.epsilon.spent == 1.0

    def test_equal_inner_answers_re_serve_equal_bytes_uncharged(self):
        # Whether the inner answer came from cache or was re-executed, equal
        # answers key equal noise: the repeat is the already-public release.
        gate = DpGate(DpPolicy(seed=3))
        request = self._request()
        first, _ = gate.finalize(request, [(7.0,)])
        second, charged = gate.finalize(request, [(7.0,)])
        assert not charged
        assert second == first
        assert gate.accountant.epsilon.spent == 1.0
        # A restarted gate (no record) charges again but re-derives the same
        # bytes, so a refunded budget buys no fresh sample to average.
        restarted, charged = DpGate(DpPolicy(seed=3)).finalize(request, [(7.0,)])
        assert charged and restarted == first
        # -0.0 and 0.0 are one answer, so they key one draw.
        zero, _ = gate.finalize(request, [(0.0,)])
        assert DpGate(DpPolicy(seed=3)).finalize(request, [(-0.0,)]) == (zero, True)

    def test_noise_is_deterministic_per_policy_seed(self):
        request = self._request()
        one = DpGate(DpPolicy(seed=9)).finalize(request, [(7.0,)])
        two = DpGate(DpPolicy(seed=9)).finalize(request, [(7.0,)])
        other = DpGate(DpPolicy(seed=10)).finalize(request, [(7.0,)])
        assert one == two
        assert one[0] != other[0]

    def test_changed_inner_answer_is_never_a_free_replay(self):
        # The free-serve branch is bound to the data the release perturbed:
        # a cache re-populated over mutated data (same key, same inner
        # text, different answer) must settle as a fresh charged release —
        # replaying the old noise would let an observer subtract the two
        # releases and recover the exact data delta uncharged.
        gate = DpGate(DpPolicy(seed=3))
        request = self._request()
        first, _ = gate.finalize(request, [(7.0,)])
        second, charged = gate.finalize(request, [(9.0,)])
        assert charged
        assert gate.accountant.epsilon.spent == 2.0
        assert gate.accountant.free_serves == 0
        # Fresh noise stream: differencing the releases does not yield the
        # exact data delta.
        assert second[0] - first[0] != 9.0 - 7.0

    def test_replayable_binds_to_the_perturbed_inner_answers(self):
        gate = DpGate(DpPolicy(epsilon_budget=1.0, seed=3))
        request = self._request()
        stored, _ = gate.finalize(request, [(7.0,)])
        assert gate.replayable(request, [(7.0,)])
        assert not gate.replayable(request, [(9.0,)])
        # With the budget spent, a mutated repeat refuses instead of leaking.
        with pytest.raises(BudgetExhausted):
            gate.finalize(request, [(9.0,)])
        # The refusal left the stored release intact: the original answer
        # still re-serves byte-identically and free.
        values, charged = gate.finalize(request, [(7.0,)])
        assert not charged
        assert values == stored

    def test_admit_is_optimistic_on_reuse_but_finalize_still_enforces(self):
        gate = DpGate(DpPolicy(epsilon_budget=1.0))
        request = self._request()
        gate.finalize(request, [(7.0,)])  # spends the budget
        # Reused keys are admitted without headroom...
        assert gate.admit(request, gate.new_pending()) is None
        # ...but a fresh release (a changed inner answer) still hits the wall.
        with pytest.raises(BudgetExhausted):
            gate.finalize(request, [(9.0,)])

    def test_ranking_release_is_clamped_and_sorted(self):
        domain = Domain(0, 10, integral=True)
        request = build_request(
            parse_spec("SELECT TOP 3 value FROM data WITH SLO(dp_epsilon=0.5)"), domain
        )
        gate = DpGate(DpPolicy(seed=1))
        values, _ = gate.finalize(request, [(10.0, 9.0, 8.0)])
        assert len(values) == 3
        assert all(0.0 <= v <= 10.0 for v in values)
        assert list(values) == sorted(values, reverse=True)
