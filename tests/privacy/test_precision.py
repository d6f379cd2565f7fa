"""Unit tests for repro.privacy.precision."""

import pytest

from repro.privacy.precision import precision


class TestPrecision:
    def test_exact(self):
        assert precision([9.0, 8.0], [9.0, 8.0], 2) == 1.0
        assert precision([9.0, 8.0], [8.0, 9.0], 2) == 1.0

    def test_partial(self):
        assert precision([9.0, 1.0], [9.0, 8.0], 2) == 0.5

    def test_disjoint(self):
        assert precision([1.0, 2.0], [9.0, 8.0], 2) == 0.0

    def test_multiset_semantics(self):
        # Two copies of 9 in the result only count once against one copy in
        # the truth.
        assert precision([9.0, 9.0], [9.0, 8.0], 2) == 0.5

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must"):
            precision([1.0], [1.0], 0)
