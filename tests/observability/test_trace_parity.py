"""Session/kernel trace parity and cross-run determinism.

The kernel backend never sends a message, yet its synthesized spans must be
*byte-identical* to the transport-backed session's recording for the same
seed: same span tree, same ids, same simulated timestamps, same attribute
values.  That bit-parity is what lets traces from the fast path stand in
for traces from the full simulation in every downstream analysis.
"""

from dataclasses import replace

import pytest

from repro.core.driver import RunConfig, run_many_on_vectors, run_protocol_on_vectors
from repro.core.params import ProtocolParams
from repro.database.query import Domain, TopKQuery
from repro.observability import TraceRecorder, tracing

from ..conftest import counting_engine

QUERY = TopKQuery(
    table="data", attribute="value", k=3, domain=Domain(1, 10_000)
)


def _vectors(n: int = 6, seed: int = 11) -> dict[str, list[float]]:
    import random

    rng = random.Random(seed)
    return {
        f"node{i}": sorted(
            (float(rng.randint(1, 10_000)) for _ in range(5)), reverse=True
        )[:3]
        for i in range(n)
    }


def _traced_run(backend: str, config: RunConfig, **recorder_kwargs) -> str:
    recorder = TraceRecorder(**recorder_kwargs)
    with tracing(recorder):
        run_protocol_on_vectors(_vectors(), QUERY, config, backend=backend)
    assert recorder.open_spans() == []
    return recorder.export_jsonl()


CONFIGS = {
    "probabilistic": RunConfig(protocol="probabilistic", seed=77),
    "naive": RunConfig(protocol="naive", seed=77),
    "anonymous-naive": RunConfig(protocol="anonymous-naive", seed=77),
    "remap": RunConfig(
        params=replace(ProtocolParams.paper_defaults(), remap_each_round=True),
        seed=77,
    ),
}


class TestBackendParity:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_jsonl_byte_identical_across_backends(self, name):
        config = CONFIGS[name]
        assert _traced_run("session", config) == _traced_run("kernel", config)

    def test_parity_holds_with_value_capture(self):
        config = CONFIGS["probabilistic"]
        session = _traced_run("session", config, capture_values=True)
        kernel = _traced_run("kernel", config, capture_values=True)
        assert session == kernel
        assert '"vector"' in session  # hop spans carry the delivered IR

    def test_span_taxonomy_matches_protocol_shape(self):
        recorder = TraceRecorder()
        config = CONFIGS["probabilistic"]
        with tracing(recorder):
            result = run_protocol_on_vectors(
                _vectors(), QUERY, config, backend="session"
            )
        names = [s.name for s in recorder.spans]
        rounds = names.count("round")
        assert names[0] == "protocol"
        assert rounds == result.rounds_executed
        assert names.count("broadcast") == 1
        # One hop per node per pass: every round plus the result broadcast.
        assert names.count("hop") == result.n_nodes * (rounds + 1)


class TestBatchParity:
    """Traced batches: spans are synthesized per trace, in job order."""

    @staticmethod
    def _spans_by_trace(backend: str, jobs) -> dict[str, list[dict]]:
        recorder = TraceRecorder(capture_values=True)
        with tracing(recorder):
            run_many_on_vectors(jobs, backend=backend)
        assert recorder.open_spans() == []
        # The shared transport interleaves the sessions' spans by delivery
        # time; per trace, the records must be identical.
        return {
            trace_id: [
                span.to_dict() for span in recorder.spans if span.trace_id == trace_id
            ]
            for trace_id in recorder.trace_ids
        }

    @pytest.mark.parametrize("size, engine_calls", [(3, []), (16, [16])])
    def test_each_trace_identical_on_either_side_of_the_crossover(
        self, size, engine_calls
    ):
        jobs = [
            (_vectors(seed=seed), QUERY, RunConfig(seed=seed))
            for seed in range(size)
        ]
        session = self._spans_by_trace("session", jobs)
        with counting_engine() as calls:
            kernel = self._spans_by_trace("kernel", jobs)
        assert calls == engine_calls
        assert kernel == session
        assert len(kernel) == size


class TestDeterminism:
    def test_two_runs_same_seed_byte_identical(self):
        config = CONFIGS["probabilistic"]
        assert _traced_run("session", config) == _traced_run("session", config)
        assert _traced_run("kernel", config) == _traced_run("kernel", config)

    def test_different_seeds_differ(self):
        first = _traced_run("session", RunConfig(seed=1))
        second = _traced_run("session", RunConfig(seed=2))
        assert first != second
