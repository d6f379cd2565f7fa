"""Protocol driver: initialization module, round loop, and public entry points.

This wires the paper's components together (Section 3.2): the ring topology,
the node-to-successor communication scheme, the per-node local computation
module, and the initialization module that picks the starting node and the
randomization parameters.

**Which executor runs a job is decided here and in one other place.**  A
config carrying a failure injector (:func:`~repro.core.kernel.kernel_refusal`)
needs real messages and runs the :class:`~repro.core.session.ProtocolSession`;
every other job goes to :func:`repro.core.batch.execute_many`, the
message-free kernels' single entry, which runs a shape group of at least
:data:`~repro.core.batch.VECTOR_CROSSOVER` jobs vectorized and everything
smaller on the scalar kernel.  Both entry points below default to that rule
and every executor returns bit-identical results under the same seed
(message ids aside), which is what the experiment harness, the goldens and
the property-based tests rely on.  :data:`SESSION` and :data:`KERNEL` exist
as explicit pins for the reference, the parity suites and the byte-accounting
experiments.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..database.query import TopKQuery
from ..database.schema import common_query
from ..network.failures import FailureInjector
from ..network.transport import DEFAULT_MAX_DELIVERIES, InMemoryTransport
from ..observability.runtime import current_tracer
from ..observability.trace import TraceContext
from .batch import execute_many as execute_batch
from .kernel import KernelUnsupported, kernel_refusal
from .params import ProtocolParams
from .results import ProtocolResult
from .session import (
    ANONYMOUS_NAIVE,
    NAIVE,
    PROBABILISTIC,
    PROTOCOLS,
    DriverError,
    ProtocolSession,
    RingBuilder,
    prepare_query_vectors,
)

if TYPE_CHECKING:
    from ..database.database import PrivateDatabase

__all__ = [
    "ANONYMOUS_NAIVE",
    "BACKENDS",
    "KERNEL",
    "NAIVE",
    "PROBABILISTIC",
    "PROTOCOLS",
    "SESSION",
    "DriverError",
    "KernelUnsupported",
    "RingBuilder",
    "RunConfig",
    "ambient_traces",
    "run_many_on_vectors",
    "run_protocol_on_vectors",
    "run_topk_queries",
    "run_topk_query",
]

#: Explicit executor pins; ``backend=None`` (the default everywhere) is the
#: rule in the module docstring.  ``SESSION`` is the transport-backed
#: simulation (failures, full accounting) — the reference.  ``KERNEL`` is a
#: message-free kernel, bit-identical on the configs it accepts and refusing
#: the rest; *which* kernel is still decided by group size.
SESSION = "session"
KERNEL = "kernel"
BACKENDS = (SESSION, KERNEL)


@dataclass(frozen=True)
class RunConfig:
    """Deployment-level options for one protocol run."""

    protocol: str = PROBABILISTIC
    params: ProtocolParams = field(default_factory=ProtocolParams.paper_defaults)
    failures: FailureInjector | None = None
    seed: int | None = None
    #: Custom ring construction, e.g. the Section 4.3 trust-aware layout
    #: (:func:`repro.network.trust.build_trusted_ring`).  Receives the node
    #: ids and the run RNG; must return a ring over exactly those ids.
    #: ``None`` uses the paper's uniformly random mapping.
    ring_builder: "RingBuilder | None" = None

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise DriverError(
                f"unknown protocol {self.protocol!r}; expected one of {PROTOCOLS}"
            )

    def rng(self) -> random.Random:
        return random.Random(self.seed)


def run_topk_query(
    databases: list[PrivateDatabase],
    query: TopKQuery,
    config: RunConfig | None = None,
    *,
    trace: "TraceContext | None" = None,
) -> ProtocolResult:
    """Answer ``query`` across ``databases`` with the configured protocol.

    This is the main public entry point.  It validates the well-matched-schema
    precondition, extracts each node's local top-k vector, and delegates to
    :func:`run_protocol_on_vectors`.
    """
    local_vectors = _extract(databases, query, trace)
    return run_protocol_on_vectors(local_vectors, query, config, trace=trace)


def _extract(
    databases: Sequence[PrivateDatabase],
    query: TopKQuery,
    trace: "TraceContext | None",
) -> dict[str, list[float]]:
    """Check the schema precondition and pull every party's local top-k."""
    owners = [db.owner for db in databases]
    if len(set(owners)) != len(owners):
        raise DriverError(f"duplicate database owners: {owners}")
    common_query(databases, query)
    local_vectors = {db.owner: db.local_topk(query) for db in databases}
    _record_extraction(databases, query, trace)
    return local_vectors


def _record_extraction(
    databases: Sequence[PrivateDatabase],
    query: TopKQuery,
    trace: "TraceContext | None",
) -> None:
    """Mark the node-local extraction step on an already-open trace span.

    The event is deterministic — engine names and row counts, never wall
    clock — so traced exports stay byte-identical per seed.  It is only
    recorded under a *parent* span (the batch/service path): before the
    protocol's root span exists an event would itself become a root and
    break the one-root-per-trace connectivity invariant the trace checker
    enforces.  Wall-clock extraction timing flows through the extraction
    sink (:func:`repro.experiments.telemetry.profile_extraction`) instead.
    """
    if trace is None or not trace.tracer.enabled or trace.span_id is None:
        return
    engines = sorted({db.table(query.table).engine_name for db in databases})
    rows = sum(len(db.table(query.table)) for db in databases)
    trace.tracer.event(
        trace,
        "local_extract",
        at=0.0,
        attrs={
            "engine": "/".join(engines),
            "parties": len(databases),
            "rows": rows,
        },
    )


def _trace_for_query(
    query: TopKQuery, config: RunConfig, nodes: int
) -> "TraceContext | None":
    """New trace from the process-wide tracer, or None when tracing is off.

    Called before backend dispatch so both backends allocate ids and baggage
    identically — a precondition of the byte-identical-export guarantee.
    """
    tracer = current_tracer()
    if tracer is None or not tracer.enabled:
        return None
    return tracer.new_trace(
        name=f"{query.table}.{query.attribute} top-{query.k}",
        baggage={
            "protocol": config.protocol,
            "k": str(query.k),
            "nodes": str(nodes),
        },
    )


def ambient_traces(
    jobs: Sequence[tuple[dict[str, list[float]], TopKQuery, RunConfig]],
) -> "list[TraceContext | None]":
    """One new trace per job, in job order (all ``None`` when tracing is off)."""
    return [
        _trace_for_query(query, config, len(vectors))
        for vectors, query, config in jobs
    ]


def run_protocol_on_vectors(
    local_vectors: dict[str, list[float]],
    query: TopKQuery,
    config: RunConfig | None = None,
    *,
    backend: str | None = None,
    trace: "TraceContext | None" = None,
) -> ProtocolResult:
    """Run the protocol when each party's local top-k vector is already known.

    ``local_vectors`` maps node id to that node's values for the queried
    attribute (any number, any order); each node participates with its local
    top-k of them, per the protocol's initial step ("each node first sorts
    its values and takes the local set of topk values", Section 3.4).  The
    experiment harness uses this entry point directly with synthetic
    workloads.

    ``backend=None`` (default) applies the executor rule: the session when
    the config carries a failure injector, a message-free kernel otherwise.
    :data:`SESSION` / :data:`KERNEL` pin one; a pinned kernel refuses
    configs it cannot honor exactly
    (:class:`~repro.core.kernel.KernelUnsupported`).
    """
    config = config or RunConfig()
    if trace is None:
        trace = _trace_for_query(query, config, len(local_vectors))
    # Untagged: a solo run carries no per-message query field.
    return _run([(local_vectors, query, config)], [trace], [""], backend)[0]


def run_many_on_vectors(
    jobs: Sequence[tuple[dict[str, list[float]], TopKQuery, RunConfig]],
    *,
    traces: "Sequence[TraceContext | None] | None" = None,
    backend: str | None = None,
) -> list[ProtocolResult]:
    """Run many independent queries as one batch.

    Each job is ``(local_vectors, query, config)``.  ``backend=None``
    (default) applies the executor rule of the module docstring to the
    batch; the pins override it:

    * :data:`KERNEL` — the message-free kernels unconditionally (each shape
      group on the kernel its size selects); configs they cannot honor
      exactly raise :class:`~repro.core.kernel.KernelUnsupported`.
    * :data:`SESSION` — the transport simulation: all sessions start at
      simulated time zero and interleave their tokens by delivery timestamp,
      so the batch completes in simulated time close to the slowest query
      rather than the sum of all queries (the ring-pipelining win).

    Every query draws its randomness from its *own* config's seed, in the
    same order the single-query path does, so each result is bit-identical
    to running that query alone with the same config — values, rounds and
    privacy exposure included, on every executor.  (Byte accounting
    differs from solo runs by the few bytes of the per-message query tag.)

    The failure injector must be shared across the batch, since one
    transport carries all queries.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    if traces is not None and len(traces) != len(jobs):
        raise DriverError(
            f"got {len(jobs)} jobs but {len(traces)} trace contexts"
        )
    base = jobs[0][2]
    for _vectors, _query, config in jobs:
        if config.failures is not base.failures:
            raise DriverError(
                "batched queries must share transport settings (failures)"
            )
    if traces is None:
        traces = ambient_traces(jobs)
    return _run(jobs, traces, [f"q{index}" for index in range(len(jobs))], backend)


def _run(
    jobs: list[tuple[dict[str, list[float]], TopKQuery, RunConfig]],
    traces: "Sequence[TraceContext | None]",
    query_ids: list[str],
    backend: str | None,
) -> list[ProtocolResult]:
    """Pick the executor for ``jobs`` and run them: both entry points end here.

    The rule's first half — does this config need real messages?  The
    failure injector is shared across a batch, so the first config answers
    for all.
    (The second half, scalar or vectorized, is ``execute_batch``'s.)
    """
    base = jobs[0][2]
    if backend is None:
        on_session = kernel_refusal(base) is not None
    elif backend in BACKENDS:
        on_session = backend == SESSION
    else:
        raise DriverError(
            f"unknown backend {backend!r}; expected None or one of {BACKENDS}"
        )
    if not on_session:
        return execute_batch(jobs, traces=traces, query_ids=query_ids)
    transport = InMemoryTransport(failures=base.failures)
    sessions = [
        ProtocolSession(
            prepare_query_vectors(vectors, query),
            config,
            transport,
            query_id=query_id,
            trace=trace,
        )
        for (vectors, query, config), trace, query_id in zip(jobs, traces, query_ids)
    ]
    for session in sessions:
        session.start()
    # Scale the runaway bound with the number of interleaved queries so a
    # legitimately large batch is not misdiagnosed as a non-quiescing run.
    transport.run_until_idle(
        max_deliveries=DEFAULT_MAX_DELIVERIES * len(sessions)
    )
    results = []
    for session in sessions:
        session.recover()
        results.append(session.finalize())
    return results


def run_topk_queries(
    databases: list[PrivateDatabase],
    queries: Sequence[TopKQuery],
    configs: Sequence[RunConfig],
    *,
    traces: "Sequence[TraceContext | None] | None" = None,
    backend: str | None = None,
) -> list[ProtocolResult]:
    """Batch counterpart of :func:`run_topk_query`: one config per query.

    Validates the schema precondition per query, extracts local vectors, and
    runs them as one batch via :func:`run_many_on_vectors`; ``backend`` is
    forwarded there.
    """
    if len(queries) != len(configs):
        raise DriverError(
            f"got {len(queries)} queries but {len(configs)} configs"
        )
    if traces is not None and len(traces) != len(queries):
        raise DriverError(
            f"got {len(queries)} jobs but {len(traces)} trace contexts"
        )
    extraction_traces = traces if traces is not None else [None] * len(queries)
    jobs = [
        (_extract(databases, query, trace), query, config)
        for query, config, trace in zip(queries, configs, extraction_traces)
    ]
    return run_many_on_vectors(jobs, traces=traces, backend=backend)
