"""Cross-feature integration: the protocol with everything switched on at once.

Each feature is unit-tested in isolation; these runs combine the session
substrate (an idle failure injector obliges it), trust-aware rings,
per-round remapping, crash recovery, custom noise strategies and
alternative schedules in single runs to catch interaction bugs.
"""

import random

import pytest

from repro.core.driver import RunConfig, run_protocol_on_vectors
from repro.core.noise import HighBiasedNoise
from repro.core.params import ProtocolParams
from repro.core.schedule import ConstantCutoffSchedule, ExponentialSchedule, LinearSchedule
from repro.database.query import Domain, TopKQuery
from repro.network.failures import FailureInjector
from repro.network.transport import LINK_SECONDS
from repro.network.trust import TrustGraph, build_trusted_ring

DOMAIN = Domain(1, 10_000)


def workload(n: int, per_node: int, seed: int) -> dict[str, list[float]]:
    rng = random.Random(seed)
    return {
        f"n{i}": [float(rng.randint(1, 10_000)) for _ in range(per_node)]
        for i in range(n)
    }


def truth(vectors: dict[str, list[float]], k: int) -> list[float]:
    return sorted((v for vs in vectors.values() for v in vs), reverse=True)[:k]


class TestEverythingOn:
    def test_remapped_biased_run_on_the_session(self):
        vectors = workload(8, 4, seed=1)
        query = TopKQuery(table="t", attribute="v", k=3, domain=DOMAIN)
        params = ProtocolParams(
            schedule=ExponentialSchedule(1.0, 0.5),
            rounds=10,
            remap_each_round=True,
            noise=HighBiasedNoise(order=3),
        )
        config = RunConfig(params=params, seed=2, failures=FailureInjector())
        result = run_protocol_on_vectors(vectors, query, config)
        assert result.final_vector == truth(vectors, 3)
        assert result.simulated_seconds == pytest.approx(
            result.stats.messages_total * LINK_SECONDS
        )
        assert len({order for order in result.ring_history.values()}) > 1

    def test_trusted_ring_with_crash_recovery(self):
        vectors = workload(7, 2, seed=3)
        query = TopKQuery(table="t", attribute="v", k=2, domain=DOMAIN)
        graph = TrustGraph(sorted(vectors), default=0.5)

        def builder(ids, rng):
            return build_trusted_ring(graph, rng)

        # Probe to find a safe victim (non-starter), then crash it mid-run.
        params = ProtocolParams.paper_defaults(rounds=8)
        probe = run_protocol_on_vectors(
            vectors, query, RunConfig(params=params, seed=4, ring_builder=builder)
        )
        victim = next(n for n in probe.ring_order if n != probe.starter)
        failures = FailureInjector()
        failures.schedule_crash(victim, after_messages=9)
        config = RunConfig(
            params=params, seed=4, ring_builder=builder, failures=failures
        )
        result = run_protocol_on_vectors(vectors, query, config)
        surviving = {n: vs for n, vs in vectors.items() if n != victim}
        assert result.final_vector == truth(surviving, 2)

    @pytest.mark.parametrize(
        "schedule",
        [
            ExponentialSchedule(0.5, 0.25),
            LinearSchedule(p0=1.0, slope=0.2),
            ConstantCutoffSchedule(p0=0.6, cutoff=4),
        ],
        ids=lambda s: type(s).__name__,
    )
    def test_alternative_schedules_on_the_session_with_min_query(self, schedule):
        vectors = workload(6, 3, seed=5)
        query = TopKQuery(
            table="t", attribute="v", k=2, domain=DOMAIN, smallest=True
        )
        params = ProtocolParams(schedule=schedule, rounds=9)
        result = run_protocol_on_vectors(
            vectors, query, RunConfig(params=params, seed=6, failures=FailureInjector())
        )
        expected = sorted(v for vs in vectors.values() for v in vs)[:2]
        assert result.answer() == expected

    def test_privacy_analysis_runs_on_fully_loaded_result(self):
        from repro.privacy import average_lop, privacy_report, worst_case_lop

        vectors = workload(6, 1, seed=7)
        query = TopKQuery(table="t", attribute="v", k=1, domain=DOMAIN)
        params = ProtocolParams.paper_defaults(rounds=8, remap_each_round=True)
        result = run_protocol_on_vectors(
            vectors, query, RunConfig(params=params, seed=8, failures=FailureInjector())
        )
        assert 0.0 <= average_lop(result) <= worst_case_lop(result) <= 1.0
        report = privacy_report(result)
        assert len(report.rows) == 6

    def test_serialized_fully_loaded_run_round_trips(self):
        from repro.core.serialization import result_from_dict, result_to_dict

        vectors = workload(6, 2, seed=9)
        query = TopKQuery(table="t", attribute="v", k=2, domain=DOMAIN)
        params = ProtocolParams.paper_defaults(rounds=7, remap_each_round=True)
        result = run_protocol_on_vectors(
            vectors, query, RunConfig(params=params, seed=10, failures=FailureInjector())
        )
        restored = result_from_dict(result_to_dict(result))
        assert restored.final_vector == result.final_vector
