"""Unit and property tests for repro.core.vectors (Algorithm 2's multiset ops)."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.vectors import (
    VectorError,
    is_sorted_desc,
    merge_topk,
    multiset_difference,
    multiset_intersection_size,
    pad_to_k,
    validate_vector,
)

values = st.lists(
    st.integers(min_value=1, max_value=100).map(float), min_size=0, max_size=12
)


class TestValidate:
    def test_accepts_sorted_desc(self):
        validate_vector([5.0, 3.0, 3.0, 1.0], 4)

    def test_rejects_wrong_length(self):
        with pytest.raises(VectorError, match="length"):
            validate_vector([1.0], 2)

    def test_rejects_unsorted(self):
        with pytest.raises(VectorError, match="sorted"):
            validate_vector([1.0, 2.0], 2)

    def test_is_sorted_desc_edge_cases(self):
        assert is_sorted_desc([])
        assert is_sorted_desc([1.0])
        assert is_sorted_desc([2.0, 2.0])
        assert not is_sorted_desc([1.0, 2.0])


class TestMergeTopK:
    def test_basic_merge(self):
        assert merge_topk([9.0, 5.0], [7.0, 6.0], 2) == [9.0, 7.0]

    def test_duplicates_kept_as_multiset(self):
        assert merge_topk([9.0, 9.0], [9.0], 3) == [9.0, 9.0, 9.0]

    def test_k_must_be_positive(self):
        with pytest.raises(VectorError):
            merge_topk([1.0], [2.0], 0)

    @given(a=values, b=values, k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_property_merge_is_sorted_topk_of_union(self, a, b, k):
        merged = merge_topk(a, b, k)
        union_sorted = sorted(a + b, reverse=True)
        assert merged == union_sorted[:k]
        assert is_sorted_desc(merged)
        assert len(merged) == min(k, len(a) + len(b))


class TestMultisetDifference:
    def test_cancels_with_multiplicity(self):
        assert multiset_difference([9.0, 9.0, 5.0], [9.0]) == [9.0, 5.0]

    def test_disjoint(self):
        assert multiset_difference([3.0, 1.0], [2.0]) == [3.0, 1.0]

    def test_empty_minuend(self):
        assert multiset_difference([], [1.0]) == []

    @given(a=values, b=values)
    @settings(max_examples=80, deadline=None)
    def test_property_size_identity(self, a, b):
        # |A - B| = |A| - |A ∩ B|
        diff = multiset_difference(a, b)
        assert len(diff) == len(a) - multiset_intersection_size(a, b)
        assert is_sorted_desc(diff)
        assert not Counter(diff) - Counter(a)


class TestIntersectionSize:
    def test_counts_multiplicity(self):
        assert multiset_intersection_size([9.0, 9.0, 5.0], [9.0, 9.0, 1.0]) == 2

    def test_disjoint_is_zero(self):
        assert multiset_intersection_size([1.0], [2.0]) == 0

    @given(a=values, b=values)
    @settings(max_examples=60, deadline=None)
    def test_property_symmetric_and_bounded(self, a, b):
        size = multiset_intersection_size(a, b)
        assert size == multiset_intersection_size(b, a)
        assert 0 <= size <= min(len(a), len(b))


class TestPadToK:
    def test_pads_with_fill(self):
        assert pad_to_k([7.0, 3.0], 4, 1.0) == [7.0, 3.0, 1.0, 1.0]

    def test_sorts_input(self):
        assert pad_to_k([3.0, 7.0], 3, 1.0) == [7.0, 3.0, 1.0]

    def test_exact_length_unpadded(self):
        assert pad_to_k([2.0], 1, 1.0) == [2.0]

    def test_too_long_rejected(self):
        with pytest.raises(VectorError, match="cannot pad"):
            pad_to_k([1.0, 2.0], 1, 0.0)

    def test_fill_above_values_rejected(self):
        with pytest.raises(VectorError, match="fill value"):
            pad_to_k([2.0], 2, 5.0)

    @given(
        vs=st.lists(st.integers(min_value=10, max_value=99).map(float), max_size=6),
        k=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_padded_is_valid_vector(self, vs, k):
        if len(vs) > k:
            return
        padded = pad_to_k(vs, k, 1.0)
        validate_vector(padded, k)
