"""Tests for the asyncio deployment substrate, including 3-way parity."""

import asyncio
import logging
import time

import pytest

from repro.core.driver import RunConfig, run_protocol_on_vectors
from repro.core.params import ProtocolParams
from repro.database.query import Domain, TopKQuery
from repro.deploy import DeployError, async_runner, run_tcp_topk
from repro.deploy.async_runner import _AsyncParty, run_async_topk
from repro.network.message import token_message
from repro.network.node import NodeError

DOMAIN = Domain(1, 10_000)
VECTORS = {
    "a": [9000.0, 100.0],
    "b": [7000.0],
    "c": [6500.0, 42.0],
    "d": [5.0],
}


class TestAsyncRuns:
    def test_topk_over_asyncio(self):
        query = TopKQuery(table="t", attribute="v", k=3, domain=DOMAIN)
        outcome = run_async_topk(VECTORS, query, seed=4)
        assert outcome.final_vector == [9000.0, 7000.0, 6500.0]
        assert all(
            vec == outcome.final_vector for vec in outcome.per_party_results.values()
        )

    def test_naive_protocol(self):
        query = TopKQuery(table="t", attribute="v", k=1, domain=DOMAIN)
        outcome = run_async_topk(VECTORS, query, seed=5, protocol="naive")
        assert outcome.final_vector == [9000.0]

    def test_minimum_parties(self):
        query = TopKQuery(table="t", attribute="v", k=1, domain=DOMAIN)
        with pytest.raises(DeployError, match="n >= 3"):
            run_async_topk({"a": [1.0], "b": [2.0]}, query)

    def test_smallest_rejected(self):
        query = TopKQuery(
            table="t", attribute="v", k=1, domain=DOMAIN, smallest=True
        )
        with pytest.raises(DeployError, match="negate first"):
            run_async_topk(VECTORS, query)


class TestGuards:
    """Mis-wired parties fail with the substrate's error, not the node's."""

    class Echo:
        def compute(self, incoming, round_number):
            return incoming

    def test_unwired_party_fails_typed(self):
        async def drive():
            party = _AsyncParty("solo", self.Echo(), is_starter=True, total_rounds=1)
            with pytest.raises(DeployError, match="no successor") as failure:
                await party.kick_off([1.0])
            assert not isinstance(failure.value, NodeError)
            with pytest.raises(DeployError, match="no successor"):
                await party.on_message(token_message("pred", "solo", 1, [1.0]))
            assert party.node.final_result is None and not party.finished.is_set()

        asyncio.run(drive())


def poison_third_delivery(monkeypatch):
    handle = _AsyncParty.on_message
    deliveries = []

    async def on_message(self, message):
        deliveries.append(message)
        if len(deliveries) == 3:
            raise ValueError("poisoned message")
        await handle(self, message)

    monkeypatch.setattr(_AsyncParty, "on_message", on_message)
    return "poisoned message"


def shrink_frames(monkeypatch):
    monkeypatch.setattr(async_runner, "MAX_FRAME_BYTES", 8)
    return "oversized frame"


class TestFailsPromptly:
    """A party's failure ends the run typed, as on the thread substrate,
    instead of being logged by the event loop while the run waits out its
    whole timeout."""

    @pytest.mark.parametrize("fault", [poison_third_delivery, shrink_frames])
    def test_a_party_failure_is_a_prompt_deploy_error(self, fault, monkeypatch, caplog):
        expected = fault(monkeypatch)
        query = TopKQuery(table="t", attribute="v", k=2, domain=DOMAIN)
        started = time.perf_counter()
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            with pytest.raises(DeployError, match=f"party '.+' failed: {expected}"):
                run_async_topk(VECTORS, query, seed=4, timeout=5.0)
        assert time.perf_counter() - started < 1.0
        assert [r for r in caplog.records if r.name == "asyncio"] == []


class TestThreeWayParity:
    @pytest.mark.parametrize("seed", [3, 21])
    def test_simulator_threads_and_asyncio_agree_exactly(self, seed):
        query = TopKQuery(table="t", attribute="v", k=2, domain=DOMAIN)
        params = ProtocolParams.paper_defaults(rounds=5)
        sim = run_protocol_on_vectors(
            VECTORS, query, RunConfig(params=params, seed=seed)
        )
        threads = run_tcp_topk(VECTORS, query, params=params, seed=seed)
        loop = run_async_topk(VECTORS, query, params=params, seed=seed)
        assert threads.final_vector == loop.final_vector == sim.final_vector
        assert threads.ring_order == loop.ring_order == sim.ring_order
        assert threads.starter == loop.starter == sim.starter
        # Every party saw the same token stream on all three substrates.
        assert threads.observations == loop.observations
