"""Unit tests for the span recorder and its exporters."""

import json

from repro.observability import (
    NULL_CONTEXT,
    NULL_TRACER,
    TraceRecorder,
    Tracer,
    current_tracer,
    tracing,
)


class TestNullTracer:
    def test_disabled_and_allocation_free(self):
        assert not NULL_TRACER.enabled
        ctx = NULL_TRACER.new_trace(name="x")
        assert ctx is NULL_CONTEXT
        child = NULL_TRACER.open_span(ctx, "op", at=0.0)
        assert child is NULL_CONTEXT
        assert NULL_TRACER.close_span(child, at=1.0) is None
        assert NULL_TRACER.event(ctx, "hop", at=0.5) is None

    def test_base_class_is_the_interface(self):
        assert isinstance(NULL_TRACER, Tracer)
        assert isinstance(TraceRecorder(), Tracer)


class TestRecorder:
    def test_ids_are_sequential_and_per_trace(self):
        recorder = TraceRecorder()
        first = recorder.new_trace(name="one")
        second = recorder.new_trace(name="two")
        assert first.trace_id == "trace-000000"
        assert second.trace_id == "trace-000001"
        root1 = recorder.open_span(first, "root", at=0.0)
        root2 = recorder.open_span(second, "root", at=0.0)
        assert root1.span_id == 1
        assert root2.span_id == 1  # span ids restart per trace

    def test_nesting_records_parent_ids(self):
        recorder = TraceRecorder()
        trace = recorder.new_trace()
        root = recorder.open_span(trace, "protocol", at=0.0)
        child = recorder.open_span(root, "round", at=0.1)
        recorder.event(child, "hop", at=0.2)
        spans = recorder.spans
        assert [s.parent_id for s in spans] == [None, 1, 2]
        assert spans[2].start == spans[2].end == 0.2  # events are points

    def test_close_is_idempotent_first_close_wins(self):
        recorder = TraceRecorder()
        ctx = recorder.open_span(recorder.new_trace(), "op", at=0.0)
        recorder.close_span(ctx, at=1.0)
        recorder.close_span(ctx, at=9.0, attrs={"late": True})
        (span,) = recorder.spans
        assert span.end == 1.0
        assert span.attrs["late"] is True  # attrs still merge

    def test_offset_shifts_recorded_times(self):
        recorder = TraceRecorder()
        trace = recorder.new_trace()
        batch = recorder.open_span(trace, "batch", at=5.0)
        shifted = batch.with_offset(5.0)
        protocol = recorder.open_span(shifted, "protocol", at=0.0)
        recorder.close_span(protocol, at=0.25)
        span = recorder.spans[-1]
        assert span.start == 5.0
        assert span.end == 5.25

    def test_open_spans_surface_unclosed_work(self):
        recorder = TraceRecorder()
        ctx = recorder.open_span(recorder.new_trace(), "op", at=0.0)
        assert [s.name for s in recorder.open_spans()] == ["op"]
        recorder.close_span(ctx, at=1.0)
        assert recorder.open_spans() == []


class TestExports:
    def _sample_recorder(self) -> TraceRecorder:
        recorder = TraceRecorder()
        trace = recorder.new_trace(name="sample")
        root = recorder.open_span(trace, "protocol", at=0.0, kind="protocol")
        recorder.event(root, "hop", at=0.001, attrs={"sender": "a"})
        recorder.close_span(root, at=0.002)
        return recorder

    def test_jsonl_is_sorted_keys_one_span_per_line(self):
        recorder = self._sample_recorder()
        lines = recorder.export_jsonl().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert list(record) == sorted(record)
            assert {"trace", "span", "parent", "name", "kind"} <= set(record)

    def test_jsonl_identical_for_identical_recordings(self):
        assert (
            self._sample_recorder().export_jsonl()
            == self._sample_recorder().export_jsonl()
        )

    def test_chrome_export_shape(self):
        document = self._sample_recorder().export_chrome()
        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(metadata) == 1
        assert len(complete) == 2
        protocol = next(e for e in complete if e["name"] == "protocol")
        assert protocol["ts"] == 0.0
        assert protocol["dur"] == 0.002 * 1e6
        assert protocol["args"]["trace"] == "trace-000000"

    def test_chrome_marks_unclosed_spans(self):
        recorder = TraceRecorder()
        recorder.open_span(recorder.new_trace(), "op", at=0.0)
        (event,) = [
            e for e in recorder.export_chrome()["traceEvents"] if e["ph"] == "X"
        ]
        assert event["args"]["unclosed"] is True
        assert event["dur"] == 0.0

    def test_write_helpers_create_parents(self, tmp_path):
        recorder = self._sample_recorder()
        jsonl = recorder.write_jsonl(tmp_path / "deep" / "t.jsonl")
        chrome = recorder.write_chrome(tmp_path / "deep" / "t.chrome.json")
        assert jsonl.read_text() == recorder.export_jsonl()
        assert json.loads(chrome.read_text())["traceEvents"]


class TestRuntimeHook:
    def test_tracing_context_manager_restores_previous(self):
        assert current_tracer() is None
        recorder = TraceRecorder()
        with tracing(recorder):
            assert current_tracer() is recorder
            inner = TraceRecorder()
            with tracing(inner):
                assert current_tracer() is inner
            assert current_tracer() is recorder
        assert current_tracer() is None
