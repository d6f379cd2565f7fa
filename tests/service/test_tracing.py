"""End-to-end tracing through the query service.

The tentpole acceptance check: one query submitted to the gateway must
yield one *connected* trace — admission event, queue span, batch span, and
under the batch the whole protocol tree (rounds, per-hop messages,
broadcast) — with every span closed and every parent reference resolving.
"""

import asyncio

from repro.observability import TraceRecorder
from repro.service import QueryService

from .conftest import fresh_federation, serve_every_way_out


def _serve(statements, *, recorder, **service_kwargs):
    service = QueryService(fresh_federation(), tracer=recorder, **service_kwargs)

    async def scenario():
        async with service:
            return await service.submit_many(statements, return_exceptions=True)

    return service, asyncio.run(scenario())


class TestSingleQueryTrace:
    def test_one_connected_trace_with_full_span_chain(self):
        recorder = TraceRecorder()
        _, results = _serve(
            ["SELECT TOP 2 value FROM data"], recorder=recorder
        )
        assert not isinstance(results[0], BaseException)
        (trace_id,) = recorder.trace_ids
        spans = [span for span in recorder.spans if span.trace_id == trace_id]
        assert recorder.open_spans() == []

        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        for name in ("query", "admission", "queue", "batch", "protocol",
                     "round", "hop", "broadcast"):
            assert name in by_name, f"missing {name!r} span"
        assert len(by_name["query"]) == 1
        assert by_name["admission"][0].attrs["outcome"] == "admitted"
        assert by_name["query"][0].attrs["outcome"] == "completed"

        # Connectivity: exactly one root, every parent id resolves.
        ids = {span.span_id for span in spans}
        roots = [span for span in spans if span.parent_id is None]
        assert len(roots) == 1 and roots[0].name == "query"
        assert all(
            span.parent_id in ids for span in spans if span.parent_id is not None
        )

        # The chain hangs together: protocol under batch under query.
        def parent_of(span):
            return next(s for s in spans if s.span_id == span.parent_id)

        protocol = by_name["protocol"][0]
        batch = parent_of(protocol)
        assert batch.name == "batch"
        assert parent_of(batch).name == "query"

    def test_protocol_spans_land_on_the_service_timeline(self):
        recorder = TraceRecorder()
        _serve(["SELECT TOP 2 value FROM data"], recorder=recorder)
        spans = recorder.spans
        batch = next(s for s in spans if s.name == "batch")
        protocol = next(s for s in spans if s.name == "protocol")
        # The batch's transport clock starts at zero; the offset places the
        # protocol at (not before) the batch dispatch time.
        assert protocol.start >= batch.start

    def test_cache_hit_closes_the_query_span_at_admission(self):
        recorder = TraceRecorder()
        statement = "SELECT TOP 2 value FROM data"
        _, results = _serve([statement, statement], recorder=recorder)
        outcomes = sorted(
            span.attrs["outcome"]
            for span in recorder.spans
            if span.name == "query"
        )
        assert "completed" in outcomes
        assert recorder.open_spans() == []


class TestShedTraces:
    def test_shed_deadline_closes_span_with_outcome(self):
        recorder = TraceRecorder()
        _, results = _serve(
            ["SELECT TOP 2 value FROM data"], recorder=recorder
        )
        # A separate service: expired deadline at submit time.
        service = QueryService(fresh_federation(), tracer=recorder)

        async def scenario():
            async with service:
                try:
                    await service.submit(
                        "SELECT TOP 2 value FROM data", timeout=0.0
                    )
                except Exception:
                    pass

        asyncio.run(scenario())
        shed = [
            span
            for span in recorder.spans
            if span.name == "query"
            and span.attrs.get("outcome") == "shed-deadline"
        ]
        assert len(shed) == 1
        assert recorder.open_spans() == []

    def test_a_refused_hit_closes_its_span_with_the_error(self, governed_backend):
        # The admission-time fast path used to let a refusal leave the
        # ``query`` span open for good.  (A malformed statement is refused
        # before its trace starts and records nothing.)
        recorder = TraceRecorder()
        serve_every_way_out(governed_backend, tracer=recorder)
        assert recorder.open_spans() == []
        queries = [span for span in recorder.spans if span.name == "query"]
        assert len(queries) == 10 - 3
        refused = [s for s in queries if s.attrs["outcome"] == "refused"]
        assert [s.attrs["error"] for s in refused] == ["DpRequired"] * 3
        assert [s.attrs["issuer"] for s in refused] == ["mallory", "alice", "mallory"]

    def test_untraced_service_records_nothing(self):
        recorder = TraceRecorder()
        service = QueryService(fresh_federation())  # no tracer

        async def scenario():
            async with service:
                return await service.submit("SELECT TOP 2 value FROM data")

        asyncio.run(scenario())
        assert recorder.spans == ()
