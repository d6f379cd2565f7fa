"""Message-free fast path for the ring protocols.

The transport substrate (:mod:`repro.network.transport`) earns its keep when
a run needs what only a simulated network can provide: failure injection and
multi-query interleaving.  The Monte Carlo trials behind the paper's figures
need none of that — they run thousands of failure-free, single-query
protocols and read back values, rounds, counters and the event log.  On that
workload the simulation stack is pure overhead: every hop constructs a
``Message`` (JSON-validating its payload), queues it for delivery, serializes
it for byte accounting, and records it into two stats/event-log pairs.

This module executes the same protocols as a tight in-process loop over the
ring: no ``Message`` objects, no serialization, no queue, no per-delivery
double accounting.  It is not an approximation.  The kernel replays the
exact RNG draw order of :class:`~repro.core.session.ProtocolSession` — ring
mapping, starter selection, per-node algorithm streams in canonical node
order, Eq. 2 coin flips and noise draws in token order, per-round remaps —
and reconstructs the byte accounting from the wire format's arithmetic
instead of serializing, so the :class:`~repro.core.results.ProtocolResult`
is **bit-identical** to the transport-backed path under the same seed:
final vector, snapshots, ring history, traffic stats, simulated clock, and
every event-log observation (message ids aside, which are process-global).

Configs the kernel cannot honor exactly are refused loudly
(:class:`KernelUnsupported`): any config carrying a failure injector.  The
driver's executor rule sends those to the session (:func:`kernel_refusal` is
the test it applies); only an explicit ``backend="kernel"`` pin ever sees the
refusal.

Callers do not pick this module: :func:`repro.core.batch.execute_many` is
the kernel path's one entry and runs a job here when its shape group is
below the measured crossover or the vectorized engine cannot replay it.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..network.events import EventLog, Observation
from ..network.message import next_message_id
from ..network.stats import TrafficStats
from ..network.transport import LINK_SECONDS
from ..observability.trace import TraceContext
from .results import ProtocolResult
from .session import (
    PROBABILISTIC,
    DriverError,
    PreparedQuery,
    initialize_run,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (driver imports us)
    from .driver import RunConfig

__all__ = [
    "KernelPhaseSample",
    "KernelRun",
    "KernelUnsupported",
    "execute",
    "kernel_refusal",
    "set_phase_sink",
    "synthesize_trace",
]


class KernelUnsupported(DriverError):
    """The config needs the transport substrate; run ``backend="session"``."""


# -- wire-format arithmetic ---------------------------------------------------
#
# ``Message.encode`` is a sort_keys/compact json.dumps of
# ``{payload: {vector: [...]}, receiver, round, sender, type}`` (single-query
# traffic has no ``query`` field).  Its byte length therefore decomposes into
# a fixed template plus the variable parts: the two JSON-quoted endpoint ids,
# the round's digits, the type string, and the vector body
# ``[v1,...,vm]`` = ``1 + m + sum(len(repr(v)))`` (json renders floats with
# ``float.__repr__``, and the whole body is ASCII).  The fixed part is
# measured from a probe encoding rather than hand-counted.
_PROBE = json.dumps(
    {
        "payload": {"vector": [0.5]},
        "receiver": "r",
        "round": 1,
        "sender": "s",
        "type": "t",
    },
    separators=(",", ":"),
    sort_keys=True,
)
_FIXED = (
    len(_PROBE)
    - len(json.dumps("r"))
    - len(json.dumps("s"))
    - len("1")
    - len("t")
    - (2 + len(repr(0.5)))
)
_TOKEN_LEN = len("token")
_RESULT_LEN = len("result")

#: JSON-encoded lengths of node ids, cached process-wide: trial harnesses
#: reuse the same ids ("node0".."nodeN") across thousands of runs.
_ID_LEN_CACHE: dict[str, int] = {}


def _id_len(node_id: str) -> int:
    length = _ID_LEN_CACHE.get(node_id)
    if length is None:
        length = _ID_LEN_CACHE[node_id] = len(json.dumps(node_id))
    return length


def _vector_bytes(vector: tuple[float, ...]) -> int:
    """Encoded length of the payload's ``[v1,...,vm]`` body."""
    total = 1 + len(vector)
    for v in vector:
        total += len(repr(v))
    return total


# -- lazy event log -----------------------------------------------------------

class _LazyKernelLog(EventLog):
    """Event log that materializes :class:`Observation` objects on first read.

    The kernel's hot loop records each ring pass as one compact tuple
    ``(kind, round, walk order, vectors)`` instead of building a frozen
    dataclass per hop.  Most figure workloads (precision, rounds,
    communication cost) never read the log at all, and LoP scoring —
    ``token_outputs``/``rounds``, every executed query on the serving
    path — reads the pass records directly.  The per-observation
    construction — and the process-global message-id draws — happen only
    when something needs the messages themselves: an adversary view,
    ``inputs_of``/``outputs_of``, iteration, or serialization.  Once
    materialized, the observations are cached and bit-identical to what
    the transport-backed path records (message ids aside).  A kernel log
    is a finished run's record; nothing appends to it.
    """

    def __init__(self, passes, query_id: str = ""):
        #: The pass records, or a zero-argument builder of them: the
        #: vectorized engine reconstructs one trial's records from its
        #: group's shared arrays only if that trial's log is ever read.
        self._source = passes
        self._query = query_id
        self._cache: list[Observation] | None = None

    @property
    def _passes(self) -> list[tuple[str, int, tuple[str, ...], object]]:
        source = self._source
        if callable(source):
            # The builder closes over the whole group's state; let it go.
            source = self._source = source()
        return source

    def __reduce__(self):
        # Ship the pass records (never a builder closure, never built
        # observations): the receiving side scores LoP from passes too.
        return (_LazyKernelLog, (self._passes, self._query))

    @property
    def _observations(self) -> list[Observation]:
        cache = self._cache
        if cache is None:
            cache = self._cache = self._materialize()
        return cache

    def token_outputs(self):
        for kind, round_number, order, vectors in self._passes:
            if kind == "token":
                for sender, vector in zip(order, vectors):
                    yield round_number, sender, vector

    def rounds(self) -> list[int]:
        return sorted(
            {
                round_number
                for kind, round_number, _order, _vectors in self._passes
                if kind == "token" and round_number > 0
            }
        )

    def _materialize(self) -> list[Observation]:
        obs_list: list[Observation] = []
        append = obs_list.append
        obs_new = Observation.__new__
        set_dict = object.__setattr__
        query_id = self._query
        for kind, round_number, order, vectors in self._passes:
            n = len(order)
            for j in range(n):
                # ``order`` is the ring walk from the starter, so hop j goes
                # order[j] -> order[j+1] and the pass closes at order[0].
                obs = obs_new(Observation)
                set_dict(
                    obs,
                    "__dict__",
                    {
                        "round": round_number,
                        "sender": order[j],
                        "receiver": order[j + 1] if j + 1 < n else order[0],
                        "vector": vectors if kind == "result" else vectors[j],
                        "msg_id": next_message_id(),
                        "kind": kind,
                        "query": query_id,
                    },
                )
                append(obs)
        return obs_list


# -- traffic breakdown ----------------------------------------------------------

def _stats_counters(ring_lists: list[list[str]], rounds: int, qid: str) -> dict:
    """One run's per-key traffic counters, from the rings it used.

    ``ring_lists`` holds the one ring every pass used, or (per-round remaps)
    one ring per token pass.  Shared by both kernels; the vectorized engine
    defers the call (its lazy-stats payload).

    ``Counter(mapping)`` on construction defers to ``dict.update`` (C
    speed), as does ``Counter(pair_list)`` via ``_count_elements``.
    """
    n = len(ring_lists[0])
    link_pairs = []
    for members in ring_lists:
        receivers = members[1:]
        receivers.append(members[0])
        link_pairs.append(list(zip(members, receivers)))
    if len(ring_lists) == 1:
        # Every pass reuses the one ring, and its directed links are
        # distinct, so the counts come straight from a dict.
        per_link = Counter(dict.fromkeys(link_pairs[0], rounds + 1))
    else:
        # One token pass per remapped ring; the final ring also carries
        # the result broadcast.
        per_link = Counter(
            [pair for pairs in link_pairs for pair in pairs] + link_pairs[-1]
        )
    return {
        "per_link": per_link,
        "per_round": Counter({r: n for r in range(1, rounds + 2)}),
        "per_type": Counter({"token": n * rounds, "result": n}),
        "per_query": Counter({qid: n * (rounds + 1)}),
    }


# -- per-phase profiling ------------------------------------------------------

@dataclass(frozen=True)
class KernelPhaseSample:
    """Where one kernel run spent its time (``--timing`` observability)."""

    setup_seconds: float
    round_loop_seconds: float
    finalize_seconds: float
    rounds: int
    #: Runs the sample covers: 1 from this kernel, a whole shape group from
    #: the vectorized engine (``rounds`` is then the group's total).
    runs: int = 1


#: When set, every kernel run reports a :class:`KernelPhaseSample` here.
#: ``None`` (the default) keeps ``time.perf_counter`` off the hot path.
_phase_sink: Callable[[KernelPhaseSample], None] | None = None


def set_phase_sink(
    sink: Callable[[KernelPhaseSample], None] | None,
) -> Callable[[KernelPhaseSample], None] | None:
    """Install a phase-sample sink; returns the previous one (for restoring)."""
    global _phase_sink
    previous = _phase_sink
    _phase_sink = sink
    return previous


def phase_sink() -> Callable[[KernelPhaseSample], None] | None:
    """The installed phase sink, if any (the vectorized engine reports here too)."""
    return _phase_sink


# -- execution ----------------------------------------------------------------

@dataclass(frozen=True)
class KernelRun:
    """One kernel execution: the result plus the per-node algorithm objects.

    ``algorithms`` (node id -> local computation module) exposes the
    diagnostic counters — ``randomized_rounds``, ``revealed_round`` — that
    the session path keeps on its nodes; the parity tests compare them.
    """

    result: ProtocolResult
    algorithms: dict[str, object]


def kernel_refusal(config: "RunConfig") -> str | None:
    """Why the kernel cannot run ``config`` bit-identically; None if it can.

    The kernel has no wire and no drop/crash machinery, so it refuses rather
    than approximate.
    """
    if config.failures is not None:
        return "failure injection needs transport drops and ring repair"
    return None


def synthesize_trace(trace: TraceContext, result: ProtocolResult) -> None:
    """Emit the spans a traced :class:`ProtocolSession` run would record.

    The kernels never deliver a message, so spans are reconstructed after
    the fact from the result's per-pass log: one protocol span, one span per
    round, one hop event per (synthetic) delivery, and a broadcast span for
    the result circulation.  Open/close order and the ``clock += LINK_SECONDS``
    float-addition chain both replicate the transport-backed path exactly,
    so under the same seed the two backends export byte-identical JSONL.
    """
    tracer = trace.tracer
    capture = tracer.capture_values
    log_passes = result.event_log._passes
    total_rounds = len(log_passes) - 1  # every pass but the result broadcast
    n = len(result.ring_order)
    t = 0.0
    protocol_ctx = tracer.open_span(
        trace,
        "protocol",
        at=t,
        kind="protocol",
        attrs={
            "protocol": result.protocol,
            "nodes": n,
            "rounds": total_rounds,
            "starter": result.starter,
            "k": result.query.k,
            "ring": list(result.ring_order),
        },
    )
    round_ctx = tracer.open_span(
        protocol_ctx, "round", at=t, kind="round", attrs={"round": 1}
    )
    broadcast_ctx: TraceContext | None = None
    for kind, round_number, order, vectors in log_passes:
        parent = broadcast_ctx if kind == "result" else round_ctx
        for j in range(n):
            t += LINK_SECONDS
            attrs = {
                "sender": order[j],
                "receiver": order[j + 1] if j + 1 < n else order[0],
                "round": round_number,
                "type": kind,
            }
            if capture:
                hop_vector = vectors if kind == "result" else vectors[j]
                attrs["vector"] = [float(v) for v in hop_vector]
            tracer.event(parent, "hop", at=t, kind="message", attrs=attrs)
        if kind == "token":
            tracer.close_span(round_ctx, at=t)
            if round_number < total_rounds:
                round_ctx = tracer.open_span(
                    protocol_ctx,
                    "round",
                    at=t,
                    kind="round",
                    attrs={"round": round_number + 1},
                )
            else:
                broadcast_ctx = tracer.open_span(
                    protocol_ctx,
                    "broadcast",
                    at=t,
                    kind="round",
                    attrs={"round": round_number + 1},
                )
    if broadcast_ctx is not None:
        tracer.close_span(broadcast_ctx, at=t)
    tracer.close_span(protocol_ctx, at=t)


def execute(
    prepared: PreparedQuery,
    config: "RunConfig",
    *,
    query_id: str = "",
) -> KernelRun:
    """Run one protocol on the fast path; bit-identical to a session run.

    ``query_id`` tags the run the way the multi-query transport does: each
    message grows by the JSON ``query`` field, and the event log and
    per-query stats carry the tag.  The empty default is the classic
    single-query traffic.
    """
    reason = kernel_refusal(config)
    if reason is not None:
        raise KernelUnsupported(
            f"kernel backend cannot honor this config exactly: {reason}; "
            'drop the backend="kernel" pin (or pin backend="session")'
        )

    sink = _phase_sink
    timed = sink is not None
    t0 = time.perf_counter() if timed else 0.0

    # The session's own initialization module: same ring, starter and
    # per-node streams, because it is the same function.
    setup = initialize_run(prepared, config)
    rng, node_ids, total_rounds = setup.rng, setup.node_ids, setup.total_rounds
    ring = setup.ring
    starter, algorithms = setup.starter, setup.algorithms
    params = config.params
    query = prepared.query
    first_input = [float(v) for v in query.identity_vector()]

    t1 = time.perf_counter() if timed else 0.0

    n = len(node_ids)
    # Every ring pass has each node send once and receive once, so the
    # endpoint-id bytes per pass are a constant, and a round's total is
    # ``n * (template + round digits + type) + id bytes + per-hop vectors``.
    ids_bytes = 2 * sum(_id_len(node_id) for node_id in node_ids)
    # Tagged (multi-query) traffic pays ``,"query":<json id>`` per message.
    query_extra = 9 + len(json.dumps(query_id)) if query_id else 0
    clock = 0.0
    bytes_total = 0
    # One compact record per ring pass; the lazy event log expands them
    # into per-hop observations only if the log is ever read.
    log_passes: list[tuple[str, int, tuple[str, ...], object]] = []
    log_pass = log_passes.append
    snapshots: dict[int, list[float]] = {}
    ring_history: dict[int, tuple[str, ...]] = {1: ring.members}
    remap = params.remap_each_round
    # Per-hop vector caches.  ``changed`` tracks whether any compute ran
    # since the last hop: when it did not, the vector object is untouched
    # and both the observation tuple and its encoded length carry over.
    # When it did, equal content still implies equal reprs — except for
    # pairs that compare equal with different reprs: 0.0 vs -0.0, and int
    # vs float (integral noise draws enter the vector as ints).  Any zero
    # disables the content cache; any non-float forces a recount and a
    # float coercion, because the session's receiving node re-reads every
    # payload as floats (``ProtocolNode._handle_token``) — on the wire an
    # int lives for exactly one hop.
    prev_tuple: tuple[float, ...] | None = None
    prev_vec_bytes = 0
    changed = True
    # Under the paper's insert-once rule, a node that has revealed passes
    # every later token on unchanged; ``compute`` would validate, copy and
    # return with zero RNG draws, so skipping the call is bit-identical.
    skip_inserted = params.insert_once and config.protocol == PROBABILISTIC

    # Round loop.  Token-passing order is the ring walk from the starter;
    # each hop is one delivery: observe, account, then the receiver computes
    # (except the starter, who closes the round).  The starter's compute for
    # the *next* round happens after the end-of-round snapshot and remap,
    # exactly as the session's round hook sequences it.
    vector = algorithms[starter].compute(first_input, 1)
    for round_number in range(1, total_rounds + 1):
        order = ring.walk_from(starter)
        bytes_total += (
            n * (_FIXED + len(str(round_number)) + _TOKEN_LEN + query_extra)
            + ids_bytes
        )
        hop_vectors: list[tuple[float, ...]] = []
        record_hop = hop_vectors.append
        # ``order`` starts at the starter, so hop j delivers to order[j];
        # receivers order[1..n-1] compute, and the closing hop n back to the
        # starter (who already computed this round) is delivery only.
        for j in range(1, n + 1):
            clock += LINK_SECONDS
            if changed:
                sent = tuple(vector)
                coerce = False
                for v in sent:
                    if type(v) is not float:
                        coerce = True
                        break
                if coerce or sent != prev_tuple or 0.0 in sent:
                    sent_bytes = _vector_bytes(sent)
                else:
                    sent_bytes = prev_vec_bytes
                bytes_total += sent_bytes
                record_hop(sent)
                if coerce:
                    vector = [float(v) for v in sent]
                    prev_tuple = tuple(vector)
                    prev_vec_bytes = _vector_bytes(prev_tuple)
                else:
                    prev_tuple = sent
                    prev_vec_bytes = sent_bytes
                changed = False
            else:
                bytes_total += prev_vec_bytes
                record_hop(prev_tuple)
            if j < n:
                algorithm = algorithms[order[j]]
                if not skip_inserted or not algorithm.has_inserted:
                    vector = algorithm.compute(vector, round_number)
                    changed = True
        log_pass(("token", round_number, order, hop_vectors))
        snapshots[round_number] = list(vector)
        if round_number < total_rounds:
            if remap:
                ring = ring.remap(rng)
                ring_history[round_number + 1] = ring.members
            algorithm = algorithms[starter]
            if not skip_inserted or not algorithm.has_inserted:
                vector = algorithm.compute(vector, round_number + 1)
                changed = True

    # Result broadcast: the final vector circulates once along the current
    # ring in round ``total_rounds + 1``; nobody computes on it.
    final_vector = list(vector)
    final_tuple = tuple(vector)
    result_round = total_rounds + 1
    bytes_total += (
        n * (_FIXED + len(str(result_round)) + _RESULT_LEN + query_extra)
        + ids_bytes
        + n * _vector_bytes(final_tuple)
    )
    log_pass(("result", result_round, ring.walk_from(starter), final_tuple))
    for _ in range(n):
        clock += LINK_SECONDS

    t2 = time.perf_counter() if timed else 0.0

    event_log = _LazyKernelLog(log_passes, query_id)

    stats = TrafficStats(
        n * (total_rounds + 1),
        bytes_total,
        **_stats_counters(
            [list(members) for members in ring_history.values()],
            total_rounds,
            query_id,
        ),
    )
    result = ProtocolResult(
        query=query,
        protocol=config.protocol,
        final_vector=final_vector,
        ring_order=setup.ring.members,
        starter=starter,
        local_vectors={
            node: sorted(v, reverse=True) for node, v in prepared.vectors.items()
        },
        round_snapshots=snapshots,
        event_log=event_log,
        stats=stats,
        ring_history=ring_history,
        simulated_seconds=clock,
        schedule=(params.schedule if config.protocol == PROBABILISTIC else None),
    )
    result.negated = prepared.negated
    result.original_query = prepared.original_query

    if timed:
        sink(
            KernelPhaseSample(
                setup_seconds=t1 - t0,
                round_loop_seconds=t2 - t1,
                finalize_seconds=time.perf_counter() - t2,
                rounds=total_rounds,
            )
        )
    return KernelRun(result=result, algorithms=algorithms)
