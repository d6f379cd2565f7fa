"""Cross-substrate parity: simulator and TCP deployment are bit-identical.

Both substrates seed the same initialization module (ring mapping, starting
node, per-node RNG streams), so a run with the same inputs and seed must
produce the same ring, starter, every intermediate token, and the same
final vector — a strong check that the TCP layer adds no behaviour of its
own.
"""

import pytest

from repro.core.driver import SESSION, RunConfig, run_protocol_on_vectors
from repro.core.params import ProtocolParams
from repro.database.query import Domain, TopKQuery
from repro.deploy import run_async_topk, run_tcp_topk

DOMAIN = Domain(1, 10_000)
VECTORS = {
    "a": [9000.0, 100.0],
    "b": [7000.0],
    "c": [6500.0, 42.0],
    "d": [5.0, 777.0],
}


def both(k: int, seed: int, rounds: int = 5):
    query = TopKQuery(table="t", attribute="v", k=k, domain=DOMAIN)
    params = ProtocolParams.paper_defaults(rounds=rounds)
    sim = run_protocol_on_vectors(VECTORS, query, RunConfig(params=params, seed=seed))
    tcp = run_tcp_topk(VECTORS, query, params=params, seed=seed)
    return sim, tcp


class TestParity:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("k", [1, 3])
    def test_ring_starter_and_result_match(self, seed, k):
        sim, tcp = both(k, seed)
        assert tcp.ring_order == sim.ring_order
        assert tcp.starter == sim.starter
        assert tcp.final_vector == sim.final_vector

    def test_every_intermediate_token_matches(self):
        sim, tcp = both(3, seed=9)
        for party in sim.ring_order:
            sim_tokens = [
                (o.round, o.vector)
                for o in sim.event_log
                if o.receiver == party and o.kind == "token"
            ]
            tcp_tokens = [
                (rnd, vec) for rnd, kind, vec in tcp.observations[party]
                if kind == "token"
            ]
            assert tcp_tokens == sim_tokens, party

    def test_result_broadcast_matches(self):
        sim, tcp = both(2, seed=13)
        for party in sim.ring_order:
            sim_results = [
                o.vector
                for o in sim.event_log
                if o.receiver == party and o.kind == "result"
            ]
            tcp_results = [
                vec for _rnd, kind, vec in tcp.observations[party]
                if kind == "result"
            ]
            assert tcp_results == sim_results, party


class TestEverySubstrateHostsTheSameNode:
    """One ProtocolNode, one set-up: what each party receives is the same
    message stream on the simulator, TCP threads and asyncio."""

    @pytest.mark.parametrize("protocol", ["probabilistic", "naive"])
    @pytest.mark.parametrize("seed", [2, 19])
    def test_observations_equal_per_seed(self, protocol, seed):
        query = TopKQuery(table="t", attribute="v", k=2, domain=DOMAIN)
        params = ProtocolParams.paper_defaults(rounds=4)
        sim = run_protocol_on_vectors(
            VECTORS,
            query,
            RunConfig(protocol=protocol, params=params, seed=seed),
            backend=SESSION,
        )
        threads = run_tcp_topk(
            VECTORS, query, params=params, protocol=protocol, seed=seed
        )
        loop = run_async_topk(
            VECTORS, query, params=params, protocol=protocol, seed=seed
        )
        simulated = {
            party: [
                (o.round, o.kind, o.vector)
                for o in sim.event_log
                if o.receiver == party
            ]
            for party in sim.ring_order
        }
        assert threads.observations == simulated
        assert loop.observations == simulated
        assert threads.starter == loop.starter == sim.starter
        assert threads.ring_order == loop.ring_order == sim.ring_order
