"""Integration tests: the protocol over real localhost TCP sockets."""

import pytest

from repro.core.params import ProtocolParams
from repro.database.query import Domain, TopKQuery
from repro.deploy import DeployError, run_tcp_topk

DOMAIN = Domain(1, 10_000)
QUERY_K1 = TopKQuery(table="t", attribute="v", k=1, domain=DOMAIN)
QUERY_K3 = TopKQuery(table="t", attribute="v", k=3, domain=DOMAIN)

VECTORS = {
    "acme": [100.0, 900.0],
    "bravo": [9000.0],
    "corex": [7000.0, 6500.0],
    "delta": [5.0, 42.0],
}


class TestTcpRuns:
    def test_max_over_tcp(self):
        outcome = run_tcp_topk(VECTORS, QUERY_K1, seed=3)
        assert outcome.final_vector == [9000.0]

    def test_topk_over_tcp(self):
        outcome = run_tcp_topk(VECTORS, QUERY_K3, seed=4)
        assert outcome.final_vector == [9000.0, 7000.0, 6500.0]

    def test_all_parties_agree(self):
        outcome = run_tcp_topk(VECTORS, QUERY_K3, seed=5)
        for vec in outcome.per_party_results.values():
            assert vec == outcome.final_vector

    def test_naive_protocol_over_tcp(self):
        outcome = run_tcp_topk(VECTORS, QUERY_K1, seed=7, protocol="naive")
        assert outcome.final_vector == [9000.0]

    def test_distinct_ports_assigned(self):
        outcome = run_tcp_topk(VECTORS, QUERY_K1, seed=8)
        ports = {addr[1] for addr in outcome.addresses.values()}
        assert len(ports) == len(VECTORS)

    def test_explicit_rounds(self):
        params = ProtocolParams.paper_defaults(rounds=3)
        outcome = run_tcp_topk(VECTORS, QUERY_K1, params=params, seed=9)
        assert outcome.final_vector == [9000.0]


class TestValidation:
    def test_minimum_parties(self):
        with pytest.raises(DeployError, match="n >= 3"):
            run_tcp_topk({"a": [1.0], "b": [2.0]}, QUERY_K1)

    def test_smallest_queries_rejected(self):
        query = TopKQuery(table="t", attribute="v", k=1, domain=DOMAIN, smallest=True)
        with pytest.raises(DeployError, match="negate first"):
            run_tcp_topk(VECTORS, query)
