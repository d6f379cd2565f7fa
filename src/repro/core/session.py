"""Resumable per-query protocol sessions for multi-query pipelining.

The classic driver (:mod:`repro.core.driver`) runs one ring protocol
end-to-end per call: with n nodes and r rounds every query pays n·r
sequential message latencies, and the ring sits idle at n−1 of its n
positions while the single token is in flight.  A :class:`ProtocolSession`
packages one query's entire run — ring construction, starter selection,
per-node algorithms, round hooks, failure recovery — as a *reactive* unit on
a shared :class:`~repro.network.transport.InMemoryTransport`: the session
emits a token, the transport delivers it, the receiving node computes and
re-emits, and between those deliveries the transport is free to carry other
queries' tokens.  Many independent queries therefore interleave on one
transport, tagged by query id, and a batch of Q queries completes in
simulated time close to the *maximum* of the per-query times rather than
their sum.

Determinism is unchanged: each session draws every random decision from its
own config's seeded RNG in exactly the order the classic driver did, so a
query's result is bit-identical whether it runs alone or pipelined with
others (the batch/sequential parity tests enforce this).
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..database.query import Domain, TopKQuery
from ..network.message import Message, MessageType, result_message, token_message
from ..network.node import LocalAlgorithm, ProtocolNode
from ..network.ring import RingError, RingTopology
from ..network.transport import InMemoryTransport
from ..observability.trace import TraceContext
from .naive import NaiveTopKAlgorithm
from .results import ProtocolResult
from .topk_protocol import ProbabilisticTopKAlgorithm
from .vectors import pad_to_k

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (driver imports us)
    from .params import ProtocolParams
    from .driver import RunConfig

#: Protocol identifiers used throughout the experiments.
PROBABILISTIC = "probabilistic"
NAIVE = "naive"
ANONYMOUS_NAIVE = "anonymous-naive"
PROTOCOLS = (PROBABILISTIC, NAIVE, ANONYMOUS_NAIVE)


class DriverError(RuntimeError):
    """Raised when a run is misconfigured or fails to terminate."""


#: Signature of a custom ring constructor: (node ids, run RNG) -> ring.
RingBuilder = Callable[[list[str], random.Random], RingTopology]


@dataclass(frozen=True)
class PreparedQuery:
    """One query's protocol-ready inputs.

    ``vectors`` and ``query`` are in the *internal* representation: min /
    bottom-k queries are negated into top-k form, and each node's values are
    reduced to its local top-k (the protocol's initial step, Section 3.4).
    ``original_query`` is the query as the caller posed it.
    """

    vectors: dict[str, list[float]]
    query: TopKQuery
    negated: bool
    original_query: TopKQuery


def prepare_query_vectors(
    local_vectors: dict[str, list[float]], query: TopKQuery
) -> PreparedQuery:
    """Normalize caller inputs into the protocol's internal representation."""
    if len(local_vectors) < 3:
        raise DriverError(
            f"the protocol requires n >= 3 nodes, got {len(local_vectors)}"
        )
    original_query = query
    vectors = {
        node: [float(v) for v in values] for node, values in local_vectors.items()
    }
    negated = query.smallest
    if negated:
        # Bottom-k reduces to top-k on negated values over the mirrored domain.
        vectors = {n: [-v for v in vs] for n, vs in vectors.items()}
        query = TopKQuery(
            table=query.table,
            attribute=query.attribute,
            k=query.k,
            domain=Domain(-query.domain.high, -query.domain.low, query.domain.integral),
            smallest=False,
        )
    # The protocol's initial step: sort locally, keep the local top-k.
    vectors = {n: sorted(vs, reverse=True)[: query.k] for n, vs in vectors.items()}
    return PreparedQuery(
        vectors=vectors, query=query, negated=negated, original_query=original_query
    )


def build_algorithm(
    protocol: str,
    values: list[float],
    query: TopKQuery,
    params: "ProtocolParams",
    rng: random.Random,
):
    """Construct one node's local computation module."""
    padded = pad_to_k(values, query.k, float(query.domain.low))
    if protocol == PROBABILISTIC:
        # Each node gets an independent RNG stream so one node's draws cannot
        # perturb another's (and runs stay reproducible under refactoring).
        node_rng = random.Random(rng.getrandbits(64))
        return ProbabilisticTopKAlgorithm(padded, query.k, params, query.domain, node_rng)
    return NaiveTopKAlgorithm(padded, query.k)


@dataclass(frozen=True)
class RunSetup:
    """One run's initialization (Section 3.3), the same on every substrate.

    ``vectors`` holds each node's local top-k, the data the algorithms were
    built over; ``rng`` is the run RNG positioned just past set-up (per-round
    ring remaps keep drawing from it).
    """

    vectors: dict[str, list[float]]
    node_ids: list[str]
    total_rounds: int
    ring: RingTopology
    starter: str
    algorithms: dict[str, LocalAlgorithm]
    rng: random.Random


def initialize_run(prepared: PreparedQuery, config: "RunConfig") -> RunSetup:
    """The initialization module: ring, starter, per-node algorithm streams.

    The draw order is the determinism contract every substrate (simulator,
    TCP threads, asyncio) shares and the kernels replay: ring layout, then
    the starter, then one stream seed per node in canonical (sorted) order.
    """
    rng = config.rng()
    node_ids = sorted(prepared.vectors)
    if config.protocol == PROBABILISTIC:
        total_rounds = config.params.resolved_rounds()
    else:
        total_rounds = 1  # the naive protocols are single-round
    if config.ring_builder is not None:
        ring = config.ring_builder(list(node_ids), rng)
        if sorted(ring.members) != node_ids:
            raise DriverError(
                "ring_builder must arrange exactly the participating nodes"
            )
    else:
        ring = RingTopology.random(node_ids, rng)
    if config.protocol == NAIVE:
        # Fixed starting scheme: the first node in canonical order starts.
        starter = node_ids[0]
    else:
        # Randomized starting scheme (initialization module, Section 3.3).
        starter = rng.choice(node_ids)
    algorithms = {
        node_id: build_algorithm(
            config.protocol, prepared.vectors[node_id], prepared.query, config.params, rng
        )
        for node_id in node_ids
    }
    return RunSetup(
        prepared.vectors, node_ids, total_rounds, ring, starter, algorithms, rng
    )


class ProtocolSession:
    """One query's resumable protocol run on a (possibly shared) transport.

    Construction performs every deterministic setup step in the exact RNG
    draw order of the classic driver: ring layout, starter selection, then
    per-node algorithm streams in canonical node order.  :meth:`start` emits
    the round-1 token; from then on the session is purely reactive — the
    transport's delivery loop drives token-in → local-compute → token-out
    until the starter's result broadcast completes.  The caller pumps the
    transport (``run_until_idle``), calls :meth:`recover` to handle crash /
    loss repair, and :meth:`finalize` to collect the
    :class:`~repro.core.results.ProtocolResult`.
    """

    def __init__(
        self,
        prepared: PreparedQuery,
        config: "RunConfig",
        transport: InMemoryTransport,
        *,
        query_id: str = "",
        trace: TraceContext | None = None,
    ) -> None:
        self.prepared = prepared
        self.config = config
        self.transport = transport
        self.query_id = query_id
        self.query = prepared.query
        self.accounting = transport.open_channel(query_id)
        #: Tracing state: the protocol-level span plus the currently-open
        #: round (or broadcast) span that hop events attach under.  All None
        #: when tracing is off, so the hot path pays one ``is None`` check.
        self.trace = trace
        self._trace_protocol_ctx: TraceContext | None = None
        self._trace_round_ctx: TraceContext | None = None
        self._trace_broadcast_ctx: TraceContext | None = None

        setup = initialize_run(prepared, config)
        self._rng = setup.rng
        self._node_ids = setup.node_ids
        self.total_rounds = setup.total_rounds
        self.ring = self._initial_ring = ring = setup.ring
        self.starter = setup.starter
        self.nodes: dict[str, ProtocolNode] = {}
        for node_id, algorithm in setup.algorithms.items():
            node = self.nodes[node_id] = ProtocolNode(
                node_id,
                algorithm,
                transport.send,
                is_starter=(node_id == self.starter),
                total_rounds=self.total_rounds,
                query_id=query_id,
            )
            transport.register(node_id, node.handle, channel=query_id)
        self._apply_ring(ring)

        self.snapshots: dict[int, list[float]] = {}
        self.ring_history: dict[int, tuple[str, ...]] = {1: ring.members}
        self.nodes[self.starter].round_hook = self._on_round_complete
        self._started = False

    # -- wiring ---------------------------------------------------------------

    def _apply_ring(self, current: RingTopology) -> None:
        # Crashed nodes may have been spliced out; only rewire members.
        for node_id in self._node_ids:
            if node_id in current:
                self.nodes[node_id].successor = current.successor(node_id)

    def _on_round_complete(self, round_number: int) -> None:
        # Called by the starter when the token comes back around.  Snapshot
        # the end-of-round global vector, then optionally remap the ring for
        # the next round (Section 4.3 collusion countermeasure).  Reads the
        # *channel* event log so interleaved queries never cross-talk.
        incoming = self.accounting.event_log.inputs_of(self.starter).get(round_number)
        if incoming is not None:
            self.snapshots[round_number] = [float(v) for v in incoming]
        if self.config.params.remap_each_round and round_number < self.total_rounds:
            self.ring = self.ring.remap(self._rng)
            self._apply_ring(self.ring)
            self.ring_history[round_number + 1] = self.ring.members
        if self.trace is not None and self._trace_round_ctx is not None:
            # Close the round that just completed; the next round (or the
            # result broadcast) opens at the same simulated instant — the
            # delivery that closed this round.  After the final round the
            # round context goes dormant, so recovery replays of the last
            # token never respawn round spans.
            tracer = self.trace.tracer
            now = self.transport.now
            tracer.close_span(self._trace_round_ctx, at=now)
            if round_number < self.total_rounds:
                self._trace_round_ctx = tracer.open_span(
                    self._trace_protocol_ctx,
                    "round",
                    at=now,
                    kind="round",
                    attrs={"round": round_number + 1},
                )
            else:
                self._trace_round_ctx = None
                self._trace_broadcast_ctx = tracer.open_span(
                    self._trace_protocol_ctx,
                    "broadcast",
                    at=now,
                    kind="round",
                    attrs={"round": round_number + 1},
                )

    def _trace_delivery(self, message: Message, now: float) -> None:
        # Transport tap: runs after channel accounting, before the receiving
        # node's handler — so the hop that closes a round is recorded under
        # that round's span before the round hook rotates spans.
        if message.type is MessageType.RESULT:
            parent = self._trace_broadcast_ctx
            hop_type = "result"
        else:
            parent = self._trace_round_ctx
            hop_type = "token"
        if parent is None:
            return
        tracer = self.trace.tracer
        attrs = {
            "sender": message.sender,
            "receiver": message.receiver,
            "round": message.round,
            "type": hop_type,
        }
        if tracer.capture_values:
            attrs["vector"] = [float(v) for v in message.payload["vector"]]
        tracer.event(parent, "hop", at=now, kind="message", attrs=attrs)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Emit the round-1 token; delivery is driven by the transport."""
        if self._started:
            raise DriverError("session already started")
        self._started = True
        config = self.config
        first_input = [float(v) for v in self.query.identity_vector()]
        if self.trace is not None:
            tracer = self.trace.tracer
            now = self.transport.now
            self._trace_protocol_ctx = tracer.open_span(
                self.trace,
                "protocol",
                at=now,
                kind="protocol",
                attrs={
                    "protocol": config.protocol,
                    "nodes": len(self._node_ids),
                    "rounds": self.total_rounds,
                    "starter": self.starter,
                    "k": self.query.k,
                    "ring": list(self._initial_ring.members),
                },
            )
            self._trace_round_ctx = tracer.open_span(
                self._trace_protocol_ctx,
                "round",
                at=now,
                kind="round",
                attrs={"round": 1},
            )
            self.accounting.on_delivery = self._trace_delivery
        self.nodes[self.starter].start(first_input)

    def recover(self) -> None:
        """Ring-repair recovery (Section 3.2) and loss retransmission.

        A crash-stopped node swallows the token and the protocol stalls.  The
        paper's remedy: "the ring can be reconstructed from scratch or simply
        by connecting the predecessor and successor of the failed node."  We
        take the splice approach: drop every crashed node from the ring,
        rewire the survivors, and have the starting node re-emit its output
        for the round that stalled (survivors that already processed it
        simply treat the replayed token per their local algorithm —
        correctness is unaffected because outputs never exceed the true
        top-k and insertion is idempotent).  A crashed *starting* node is
        unrecoverable by splicing (the paper's from-scratch rebuild covers
        it) and reported loudly.

        Lossy links (a drop probability with no crash) use the same machinery
        minus the splice: the starter retransmits the stalled round's token,
        with a bounded retry budget so a pathological loss rate still fails
        loudly.
        """
        failures = self.config.failures
        if failures is None:
            return
        nodes, starter, transport = self.nodes, self.starter, self.transport
        lossy = getattr(failures, "drop_probability", 0.0) > 0.0
        attempts = 0
        while nodes[starter].final_result is None:
            crashed = [n for n in self.ring.members if failures.is_crashed(n)]
            if not crashed and not lossy:
                return  # nothing to repair; let the caller report the stall
            if failures.is_crashed(starter):
                raise DriverError(
                    "the starting node crashed; the ring must be rebuilt from "
                    "scratch with a fresh initialization"
                )
            attempts += 1
            # Each retransmission restarts one stalled round, so the budget
            # scales with the round count; it only bounds pathological loss
            # rates, not normal operation.
            retry_budget = max(len(nodes), 16, 8 * nodes[starter].total_rounds)
            if attempts > retry_budget:
                raise DriverError("ring repair / retransmission did not converge")
            try:
                for failed in crashed:
                    self.ring = self.ring.repair(failed)
            except RingError as exc:
                raise DriverError(f"cannot repair ring: {exc}") from exc
            self._apply_ring(self.ring)
            # Values inserted into the lost token segment are gone; survivors
            # must be allowed to contribute again, and must *forget* the
            # insertions the replay erases (those of the stalled round) or
            # they would mis-attribute equal surviving values as their own.
            # The starter's stalled-round insertion is the exception: it is
            # embodied in the replayed vector itself.
            stalled_round = nodes[starter].rounds_completed + 1
            for node_id, node in nodes.items():
                if not failures.is_crashed(node_id):
                    rearm = getattr(node.algorithm, "rearm", None)
                    if rearm is not None:
                        rearm(None if node_id == starter else stalled_round)
            # Replay exactly what the starter last emitted for the stalled
            # round; the node-side copy survives even when the transport
            # dropped the send before any log saw it.
            if (
                nodes[starter].last_sent_vector is not None
                and nodes[starter].last_sent_round == stalled_round
            ):
                vector = list(nodes[starter].last_sent_vector)
            else:
                vector = [float(v) for v in self.query.identity_vector()]
            transport.send(
                token_message(
                    starter,
                    self.ring.successor(starter),
                    stalled_round,
                    vector,
                    query=self.query_id,
                )
            )
            transport.run_until_idle()

        # The token phase finished; make sure the result broadcast also
        # survived (it too can be eaten by a crash or a lossy link).
        final = nodes[starter].final_result
        rebroadcasts = 0
        while True:
            survivors = [
                n for n in self.ring.members if not failures.is_crashed(n)
            ]
            if all(nodes[n].final_result is not None for n in survivors):
                return
            rebroadcasts += 1
            if rebroadcasts > max(len(nodes), 16):
                raise DriverError("result broadcast did not converge")
            try:
                for failed in [
                    n for n in self.ring.members if failures.is_crashed(n)
                ]:
                    self.ring = self.ring.repair(failed)
            except RingError as exc:
                raise DriverError(f"cannot repair ring: {exc}") from exc
            self._apply_ring(self.ring)
            transport.send(
                result_message(
                    starter,
                    self.ring.successor(starter),
                    nodes[starter].rounds_completed + 1,
                    list(final),
                    query=self.query_id,
                )
            )
            transport.run_until_idle()

    def finalize(self) -> ProtocolResult:
        """Validate termination and assemble the result for this query."""
        config = self.config
        final = self.nodes[self.starter].final_result
        if final is None:
            raise DriverError("protocol did not terminate with a result")
        survivors = [
            n
            for n in self._node_ids
            if config.failures is None or not config.failures.is_crashed(n)
        ]
        missing = [n for n in survivors if self.nodes[n].final_result is None]
        if missing:
            raise DriverError(f"nodes never learned the final result: {missing}")

        if self.trace is not None and self._trace_protocol_ctx is not None:
            tracer = self.trace.tracer
            end = self.accounting.last_delivery_at
            if self._trace_broadcast_ctx is not None:
                tracer.close_span(self._trace_broadcast_ctx, at=end)
                self._trace_broadcast_ctx = None
            tracer.close_span(self._trace_protocol_ctx, at=end)
            self.accounting.on_delivery = None

        result = ProtocolResult(
            query=self.query,
            protocol=config.protocol,
            final_vector=final,
            ring_order=self._initial_ring.members,
            starter=self.starter,
            local_vectors={
                n: sorted(v, reverse=True) for n, v in self.prepared.vectors.items()
            },
            round_snapshots=self.snapshots,
            event_log=self.accounting.event_log,
            stats=self.accounting.stats,
            ring_history=self.ring_history,
            simulated_seconds=self.accounting.last_delivery_at,
            schedule=(
                config.params.schedule if config.protocol == PROBABILISTIC else None
            ),
        )
        result.negated = self.prepared.negated
        result.original_query = self.prepared.original_query
        return result
