"""Unit tests for repro.core.naive."""

import pytest

from repro.core.naive import NaiveTopKAlgorithm


class TestNaiveTopK:
    def test_merges_real_topk(self):
        algo = NaiveTopKAlgorithm([50.0, 10.0], k=2)
        assert algo.compute([40.0, 30.0], 1) == [50.0, 40.0]

    def test_passes_when_nothing_to_contribute(self):
        algo = NaiveTopKAlgorithm([5.0], k=2)
        assert algo.compute([40.0, 30.0], 1) == [40.0, 30.0]

    def test_local_values_sorted_internally(self):
        algo = NaiveTopKAlgorithm([10.0, 50.0], k=2)
        assert algo.local_values == [50.0, 10.0]

    def test_rejects_oversized_local_vector(self):
        with pytest.raises(ValueError, match="at most k"):
            NaiveTopKAlgorithm([1.0, 2.0, 3.0], k=2)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must"):
            NaiveTopKAlgorithm([1.0], k=0)

    def test_validates_incoming_vector(self):
        algo = NaiveTopKAlgorithm([5.0], k=2)
        with pytest.raises(Exception):
            algo.compute([1.0], 1)  # wrong length

    def test_deterministic_across_rounds(self):
        algo = NaiveTopKAlgorithm([50.0], k=1)
        assert algo.compute([10.0], 1) == algo.compute([10.0], 2) == [50.0]


class TestNaiveMax:
    def test_is_k1_special_case(self):
        algo = NaiveTopKAlgorithm([42.0], k=1)
        assert algo.k == 1
        assert algo.compute([10.0], 1) == [42.0]
        assert algo.compute([99.0], 1) == [99.0]

    def test_equal_values_pass_through(self):
        algo = NaiveTopKAlgorithm([42.0], k=1)
        assert algo.compute([42.0], 1) == [42.0]
