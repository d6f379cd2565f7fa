"""Unit and property tests for the secure kth-ranked-element protocol."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database.query import Domain
from repro.extensions.kth_element import (
    KthElementError,
    kth_largest,
    median,
)

DOMAIN = Domain(1, 10_000)

PARTIES = {
    "a": [100.0, 900.0, 250.0],
    "b": [9000.0, 40.0],
    "c": [7000.0, 6500.0, 3.0],
}
ALL_SORTED = sorted((v for vs in PARTIES.values() for v in vs), reverse=True)


class TestKthLargest:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_matches_plain_ranking(self, k):
        outcome = kth_largest(PARTIES, k, DOMAIN, seed=1)
        assert outcome.value == ALL_SORTED[k - 1]

    def test_duplicates_handled(self):
        parties = {"a": [500.0, 500.0], "b": [500.0], "c": [10.0]}
        assert kth_largest(parties, 3, DOMAIN, seed=2).value == 500.0
        assert kth_largest(parties, 4, DOMAIN, seed=2).value == 10.0

    def test_rank_out_of_range(self):
        with pytest.raises(KthElementError, match="exceeds"):
            kth_largest(PARTIES, 99, DOMAIN, seed=1)

    def test_k_validated(self):
        with pytest.raises(KthElementError, match="k must"):
            kth_largest(PARTIES, 0, DOMAIN)

    def test_integral_domain_required(self):
        with pytest.raises(KthElementError, match="integral"):
            kth_largest(PARTIES, 1, Domain(0.0, 1.0, integral=False))

    def test_out_of_domain_value_rejected(self):
        bad = dict(PARTIES, d=[99_999.0])
        with pytest.raises(KthElementError, match="outside the public domain"):
            kth_largest(bad, 1, DOMAIN)

    def test_minimum_parties(self):
        with pytest.raises(KthElementError, match="n >= 3"):
            kth_largest({"a": [1.0], "b": [2.0]}, 1, DOMAIN)

    def test_probe_count_logarithmic(self):
        outcome = kth_largest(PARTIES, 3, DOMAIN, seed=3)
        import math

        # One feasibility count plus ~log2(|domain|) probes.
        assert outcome.comparisons <= 2 + math.ceil(math.log2(DOMAIN.high - DOMAIN.low + 1))

    def test_probe_counts_monotone_in_threshold(self):
        outcome = kth_largest(PARTIES, 2, DOMAIN, seed=4)
        by_candidate = sorted(outcome.probes, key=lambda p: p.candidate)
        counts = [p.count_at_least for p in by_candidate]
        assert counts == sorted(counts, reverse=True)


class TestMedian:
    def test_upper_median(self):
        outcome = median(PARTIES, DOMAIN, seed=5)
        # 8 values -> k = 4 -> 4th largest.
        assert outcome.value == ALL_SORTED[3]

    def test_median_empty_federation(self):
        parties = {"a": [], "b": [], "c": []}
        with pytest.raises(KthElementError, match="no values"):
            median(parties, DOMAIN, seed=6)


@given(
    data=st.lists(
        st.lists(st.integers(min_value=1, max_value=500).map(float), min_size=1, max_size=6),
        min_size=3,
        max_size=6,
    ),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_property_kth_element_matches_sort(data, seed):
    parties = {f"p{i}": values for i, values in enumerate(data)}
    merged = sorted((v for vs in data for v in vs), reverse=True)
    k = random.Random(seed).randint(1, len(merged))
    outcome = kth_largest(parties, k, Domain(1, 500), seed=seed)
    assert outcome.value == merged[k - 1]
