"""Distributed tracing with deterministic, simulation-clocked spans.

One query's journey through this system crosses four layers — the service
gateway (admission, queueing, batching), the federation coordinator, the
protocol session's ring rounds, and the per-hop message deliveries of the
transport (or the kernel's closed-form replay of them).  A
:class:`TraceContext` created at the top of that journey is threaded down
through every layer; each layer opens spans under it, so the result is one
connected tree per query: ``query -> admission/queue/batch -> protocol ->
round -> hop``.

Determinism is the design center.  Span timestamps come from the simulated
clocks that already make results reproducible (the transport's delivery
clock, the service's :class:`~repro.service.clock.SimulatedClock`), trace
and span ids are sequential per recorder, and exports serialize with sorted
keys — so a seeded run produces a byte-identical JSONL trace every time,
and the ``session`` and ``kernel`` backends produce *the same spans* for
the same seed (the kernel synthesizes them from its closed-form accounting
in the exact order the transport-backed path records them).

Because every delivered intermediate vector can be captured on its hop span
(``capture_values=True``), a trace is also the ground truth for the paper's
privacy accounting: the LoP metric (Eq. 1) is defined over exactly the
intermediate results ``IR`` that hop spans record.

Zero cost when disabled: the base :class:`Tracer` is a no-op recorder, and
every integration point guards on ``trace is not None`` / ``tracer.enabled``
so the hot paths never construct a span object unless someone is listening.

Exporters: newline-delimited JSON (:meth:`TraceRecorder.export_jsonl`) for
diffing and programmatic analysis, and the Chrome ``trace_event`` format
(:meth:`TraceRecorder.export_chrome`) loadable in Perfetto or
``about:tracing``.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

__all__ = [
    "NULL_CONTEXT",
    "NULL_TRACER",
    "Span",
    "TraceContext",
    "TraceRecorder",
    "Tracer",
]

#: Attribute values accepted on spans (anything JSON-serializable works,
#: but these are the types the built-in instrumentation uses).
AttrValue = Any
Attrs = Mapping[str, AttrValue]


@dataclass
class Span:
    """One timed operation in a trace.

    ``start``/``end`` are simulated seconds on whichever clock the recording
    layer runs (plus the context's offset, which places a nested clock — a
    batch's fresh transport, say — onto its parent's timeline).  ``end`` is
    ``None`` while the span is open; exporters mark still-open spans
    explicitly rather than guessing a duration.
    """

    trace_id: str
    span_id: int
    parent_id: int | None
    name: str
    kind: str
    start: float
    end: float | None
    attrs: dict[str, AttrValue]

    def to_dict(self) -> dict[str, AttrValue]:
        """Stable, sorted-key-friendly JSON view (one JSONL record)."""
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else max(0.0, self.end - self.start)


@dataclass(frozen=True)
class TraceContext:
    """Propagation handle: which trace, which parent span, what time offset.

    Immutable and cheap to copy.  ``span_id`` is the parent under which
    children open (``None`` for the trace root).  ``offset`` shifts every
    timestamp recorded under this context — the service sets it to the
    batch dispatch time so protocol spans (recorded on a transport clock
    that starts at zero) land on the service timeline.
    """

    tracer: "Tracer"
    trace_id: str
    span_id: int | None = None
    offset: float = 0.0

    def with_offset(self, extra: float) -> "TraceContext":
        """This context with ``extra`` seconds added to its time offset."""
        return replace(self, offset=self.offset + extra)


class Tracer:
    """The no-op recorder: the interface, and the disabled fast path.

    Instrumented code treats any tracer uniformly; this base class records
    nothing and allocates nothing beyond the shared :data:`NULL_CONTEXT`,
    so passing it (or checking ``enabled`` and skipping entirely) keeps the
    disabled cost at one attribute read.
    """

    enabled: bool = False
    #: When True, hop spans carry the delivered intermediate vector — the
    #: paper's ``IR`` — making the trace usable for exposure accounting.
    capture_values: bool = False

    def new_trace(
        self, *, name: str = "", baggage: Mapping[str, str] | None = None
    ) -> TraceContext:
        return NULL_CONTEXT

    def open_span(
        self,
        parent: TraceContext,
        name: str,
        *,
        at: float,
        kind: str = "span",
        attrs: Attrs | None = None,
    ) -> TraceContext:
        return NULL_CONTEXT

    def close_span(
        self, ctx: TraceContext, *, at: float, attrs: Attrs | None = None
    ) -> None:
        return None

    def event(
        self,
        parent: TraceContext,
        name: str,
        *,
        at: float,
        kind: str = "event",
        attrs: Attrs | None = None,
    ) -> None:
        return None


#: Shared do-nothing tracer (the "no-op recorder" of the disabled path).
NULL_TRACER = Tracer()
#: The context every :data:`NULL_TRACER` operation returns.
NULL_CONTEXT = TraceContext(tracer=NULL_TRACER, trace_id="")


class TraceRecorder(Tracer):
    """In-memory span recorder with deterministic ids and exports.

    Trace ids are ``trace-NNNNNN`` in creation order; span ids count from 1
    within each trace, in *open* order.  Under the repository's seeded
    clocks both orders are deterministic, which is what makes the JSONL
    export byte-identical across runs (and across the ``session`` /
    ``kernel`` backends, whose instrumentation opens spans in the same
    sequence by construction).
    """

    enabled = True

    def __init__(self, *, capture_values: bool = False) -> None:
        self.capture_values = capture_values
        self._spans: list[Span] = []
        self._index: dict[tuple[str, int], Span] = {}
        self._trace_ids: list[str] = []
        self._baggage: dict[str, dict[str, str]] = {}
        self._names: dict[str, str] = {}
        self._next_span: dict[str, int] = {}

    # -- recording -----------------------------------------------------------

    def new_trace(
        self, *, name: str = "", baggage: Mapping[str, str] | None = None
    ) -> TraceContext:
        """Open a fresh trace; no root span is created (the first
        :meth:`open_span` under the returned context becomes the root)."""
        trace_id = f"trace-{len(self._trace_ids):06d}"
        self._trace_ids.append(trace_id)
        self._baggage[trace_id] = dict(baggage or {})
        self._names[trace_id] = name
        self._next_span[trace_id] = 1
        return TraceContext(tracer=self, trace_id=trace_id)

    def open_span(
        self,
        parent: TraceContext,
        name: str,
        *,
        at: float,
        kind: str = "span",
        attrs: Attrs | None = None,
    ) -> TraceContext:
        """Open a child span under ``parent``; returns the child's context."""
        trace_id = parent.trace_id
        span_id = self._next_span[trace_id]
        self._next_span[trace_id] = span_id + 1
        span = Span(
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent.span_id,
            name=name,
            kind=kind,
            start=parent.offset + at,
            end=None,
            attrs=dict(attrs or {}),
        )
        self._spans.append(span)
        self._index[(trace_id, span_id)] = span
        return replace(parent, span_id=span_id)

    def close_span(
        self, ctx: TraceContext, *, at: float, attrs: Attrs | None = None
    ) -> None:
        """Close the span ``ctx`` points at (idempotent: first close wins)."""
        if ctx.span_id is None:
            return
        span = self._index.get((ctx.trace_id, ctx.span_id))
        if span is None:
            return
        if span.end is None:
            span.end = ctx.offset + at
        if attrs:
            span.attrs.update(attrs)

    def event(
        self,
        parent: TraceContext,
        name: str,
        *,
        at: float,
        kind: str = "event",
        attrs: Attrs | None = None,
    ) -> None:
        """Record a zero-duration span (a point event) under ``parent``."""
        child = self.open_span(parent, name, at=at, kind=kind, attrs=attrs)
        self.close_span(child, at=at)

    # -- inspection ----------------------------------------------------------

    @property
    def spans(self) -> tuple[Span, ...]:
        """Every recorded span, in open order."""
        return tuple(self._spans)

    @property
    def trace_ids(self) -> tuple[str, ...]:
        return tuple(self._trace_ids)

    def open_spans(self) -> list[Span]:
        """Spans never closed — crash diagnostics (empty on a clean run)."""
        return [s for s in self._spans if s.end is None]

    # -- exports -------------------------------------------------------------

    def export_jsonl(self) -> str:
        """One JSON record per span, open order, sorted keys.

        Byte-identical for byte-identical runs: timestamps come from the
        simulated clocks, ids from deterministic counters, and floats render
        through ``json`` (i.e. ``repr``) on both recording paths.
        """
        lines = [
            json.dumps(span.to_dict(), sort_keys=True) for span in self._spans
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def export_chrome(self, *, time_scale: float = 1e6) -> dict[str, AttrValue]:
        """The Chrome ``trace_event`` JSON object (Perfetto/about:tracing).

        Each trace renders as its own thread row (one query per track);
        spans are complete ("X") events with microsecond timestamps, and
        still-open spans export with zero duration plus an ``unclosed``
        marker rather than being dropped.
        """
        tids = {trace_id: i for i, trace_id in enumerate(self._trace_ids, 1)}
        events: list[dict[str, AttrValue]] = []
        for trace_id in self._trace_ids:
            label = (
                self._names[trace_id]
                or self._baggage[trace_id].get("statement")
                or trace_id
            )
            events.append(
                {
                    "args": {"name": f"{trace_id}: {label}"},
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tids[trace_id],
                }
            )
        for span in self._spans:
            args: dict[str, AttrValue] = dict(span.attrs)
            args["trace"] = span.trace_id
            args["span"] = span.span_id
            if span.parent_id is not None:
                args["parent"] = span.parent_id
            if span.end is None:
                args["unclosed"] = True
            events.append(
                {
                    "args": args,
                    "cat": span.kind,
                    "dur": span.duration * time_scale,
                    "name": span.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": tids[span.trace_id],
                    "ts": span.start * time_scale,
                }
            )
        return {"displayTimeUnit": "ms", "traceEvents": events}

    def write_jsonl(self, path: str | Path) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.export_jsonl())
        return target

    def write_chrome(self, path: str | Path) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.export_chrome(), indent=2, sort_keys=True) + "\n"
        )
        return target
