"""The segmented, shuffled-shares k-secure-sum (Sheikh et al., arXiv:1003.4071).

``_split`` cuts each value into the shares these tests sum back exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database.database import database_from_values
from repro.database.query import PAPER_DOMAIN
from repro.extensions.ksecuresum import run_k_secure_sum
from repro.extensions.securesum import SecureSumError, run_secure_sum
from repro.federation import Federation

VALUES = {"a": 17.0, "b": 250.0, "c": 9.0, "d": 1024.0}


class TestCorrectness:
    def test_integral_inputs_are_bit_exact(self):
        # Integer shares + integer masks: the grand total is exact, not
        # approximately equal — no float-rounding tolerance needed.
        result = run_k_secure_sum(VALUES, segments=3, seed=4)
        assert result.total == 1300.0

    def test_matches_the_plain_secure_sum_total(self):
        plain = run_secure_sum(VALUES, seed=4)
        segmented = run_k_secure_sum(VALUES, segments=4, seed=4)
        assert segmented.total == pytest.approx(plain.total, abs=1e-6)

    def test_single_segment_degenerates_to_one_pass(self):
        result = run_k_secure_sum(VALUES, segments=1, seed=4)
        assert result.segments == 1
        assert result.total == 1300.0

    def test_continuous_inputs_within_float_tolerance(self):
        values = {"a": 1.25, "b": -7.5, "c": 3.125}
        result = run_k_secure_sum(values, segments=3, seed=2)
        assert result.total == pytest.approx(sum(values.values()), abs=1e-3)

    @given(
        vals=st.lists(
            st.integers(min_value=-10**6, max_value=10**6),
            min_size=3,
            max_size=8,
        ),
        segments=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_exact_for_integers(self, vals, segments, seed):
        values = {f"p{i}": float(v) for i, v in enumerate(vals)}
        result = run_k_secure_sum(values, segments=segments, seed=seed)
        assert result.total == float(sum(vals))

    def test_typed_validation(self):
        with pytest.raises(SecureSumError, match="n >= 3"):
            run_k_secure_sum({"a": 1.0, "b": 2.0}, segments=2)
        with pytest.raises(SecureSumError, match="segments"):
            run_k_secure_sum(VALUES, segments=0)
        with pytest.raises(SecureSumError, match="mask_scale"):
            run_k_secure_sum(VALUES, mask_scale=0.0)


class TestPrivacyMechanics:
    def test_each_pass_reshuffles_the_ring(self):
        result = run_k_secure_sum(VALUES, segments=4, seed=9)
        orders = {r.ring_order for r in result.rounds}
        assert len(orders) > 1  # a fixed ring would defeat the scheme
        starters_or_masks = {(r.starter, r.mask) for r in result.rounds}
        assert len(starters_or_masks) > 1  # fresh starter/mask per pass

    def test_round_totals_are_segment_sums_not_values(self):
        # What each pass reveals is the sum of that pass's *segments*;
        # only the grand total across all passes equals the data sum.
        result = run_k_secure_sum(VALUES, segments=3, seed=9)
        assert sum(r.total for r in result.rounds) == result.total
        assert any(r.total != result.total for r in result.rounds)

    def test_traffic_scales_with_segments(self):
        one = run_k_secure_sum(VALUES, segments=1, seed=3)
        four = run_k_secure_sum(VALUES, segments=4, seed=3)
        assert four.stats.messages_total == 4 * one.stats.messages_total

    def test_deterministic_per_seed(self):
        one = run_k_secure_sum(VALUES, segments=3, seed=5)
        two = run_k_secure_sum(VALUES, segments=3, seed=5)
        assert one.total == two.total
        assert [r.ring_order for r in one.rounds] == [
            r.ring_order for r in two.rounds
        ]


class TestFederationWiring:
    @staticmethod
    def _federation(**kwargs) -> Federation:
        fed = Federation(domain=PAPER_DOMAIN, seed=7, **kwargs)
        for owner, values in {
            "acme": [100, 900, 250],
            "bravo": [9000, 40],
            "corex": [7000, 6500, 3],
        }.items():
            fed.register(database_from_values(owner, values))
        return fed

    def test_segments_swap_the_additive_protocol(self):
        plain = self._federation().execute("SELECT SUM(value) FROM data")
        hardened = self._federation(secure_sum_segments=3).execute(
            "SELECT SUM(value) FROM data"
        )
        assert plain.protocol == "secure-sum"
        assert hardened.protocol == "k-secure-sum"
        assert hardened.rounds == 3
        assert hardened.values == plain.values  # integral data: exact parity
        assert hardened.messages > plain.messages  # k passes cost k rings

    def test_ranking_queries_are_untouched(self):
        plain = self._federation().execute("SELECT TOP 3 value FROM data")
        hardened = self._federation(secure_sum_segments=3).execute(
            "SELECT TOP 3 value FROM data"
        )
        assert hardened.values == plain.values
        assert hardened.protocol == plain.protocol

    def test_invalid_segments_refuse_at_construction(self):
        with pytest.raises(Exception, match="secure_sum_segments"):
            self._federation(secure_sum_segments=0)
