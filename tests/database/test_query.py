"""Unit tests for repro.database.query."""

import pytest

from repro.database.query import (
    PAPER_DOMAIN,
    Domain,
    QueryError,
    TopKQuery,
)


class TestDomain:
    def test_paper_domain(self):
        assert PAPER_DOMAIN.low == 1
        assert PAPER_DOMAIN.high == 10_000
        assert PAPER_DOMAIN.integral

    def test_empty_domain_rejected(self):
        with pytest.raises(QueryError, match="empty domain"):
            Domain(5, 5)

    def test_inverted_domain_rejected(self):
        with pytest.raises(QueryError, match="empty domain"):
            Domain(10, 1)

    def test_contains(self):
        domain = Domain(1, 10)
        assert 1 in domain
        assert 10 in domain
        assert 5.5 in domain
        assert 0 not in domain
        assert 11 not in domain
        assert "5" not in domain

    def test_clamp(self):
        domain = Domain(1, 10)
        assert domain.clamp(-3) == 1
        assert domain.clamp(99) == 10
        assert domain.clamp(7) == 7


class TestTopKQuery:
    def test_k_must_be_positive(self):
        with pytest.raises(QueryError, match="k must be"):
            TopKQuery(table="t", attribute="a", k=0)

    def test_names_must_be_non_empty(self):
        with pytest.raises(QueryError):
            TopKQuery(table="", attribute="a", k=1)
        with pytest.raises(QueryError):
            TopKQuery(table="t", attribute="", k=1)

    def test_identity_vector_topk(self):
        query = TopKQuery(table="t", attribute="a", k=3, domain=Domain(1, 10))
        assert query.identity_vector() == [1, 1, 1]

    def test_identity_vector_bottomk(self):
        query = TopKQuery(
            table="t", attribute="a", k=2, domain=Domain(1, 10), smallest=True
        )
        assert query.identity_vector() == [10, 10]
