"""The protocol over asyncio streams — a third, event-loop substrate.

Completes the transport-agnosticism story: the same local computation
modules run under the in-memory simulator (measured experiments), thread-
per-party TCP (:mod:`repro.deploy.runner`), and — here — a single asyncio
event loop with one stream server per party.  The initialization module is
seeded identically, so all three substrates produce bit-identical runs for
the same inputs (see ``tests/deploy/test_async_run.py``).
"""

from __future__ import annotations

import asyncio

from ..core.params import ProtocolParams
from ..core.session import RunSetup
from ..database.query import TopKQuery
from ..network.message import Message
from ..network.node import LocalAlgorithm, ProtocolNode
from .runner import DeployError, TcpRunResult, assemble_result, initialize_deployment
from .wire import MAX_FRAME_BYTES, PREFIX_BYTES


class _AsyncParty:
    """One party inside the event loop: a stream server around a hosted node.

    The :class:`~repro.network.node.ProtocolNode` decides what to do with
    each message; its ``send`` only queues, and :meth:`on_message` awaits
    the queued sends — the node is synchronous, the sockets are not.
    """

    def __init__(
        self,
        node_id: str,
        algorithm: LocalAlgorithm,
        *,
        is_starter: bool,
        total_rounds: int,
    ) -> None:
        self._outbox: list[Message] = []
        self.node = ProtocolNode(
            node_id,
            algorithm,
            self._outbox.append,
            is_starter=is_starter,
            total_rounds=total_rounds,
        )
        self.successor_address: tuple[str, int] | None = None
        self.finished = asyncio.Event()
        self.error: Exception | None = None
        self.observations: list[tuple[int, str, tuple[float, ...]]] = []
        self.server: asyncio.AbstractServer | None = None
        self.address: tuple[str, int] | None = None

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one framed message; a failure finishes this party with it.

        Raising out of a connection callback would only be logged by the
        event loop, and the run would wait out its whole timeout.
        """
        try:
            prefix = await reader.readexactly(PREFIX_BYTES)
            length = int.from_bytes(prefix, "big")
            if length > MAX_FRAME_BYTES:
                raise DeployError(f"oversized frame: {length} bytes")
            body = await reader.readexactly(length)
            await self.on_message(Message.decode(body))
        except Exception as exc:
            self.error = exc
            self.finished.set()
        finally:
            writer.close()

    async def on_message(self, message: Message) -> None:
        vector = tuple(float(v) for v in message.payload["vector"])
        self.observations.append((message.round, message.type.value, vector))
        self._require_successor()
        self.node.handle(message)
        await self.flush()

    async def kick_off(self, identity_vector: list[float]) -> None:
        self._require_successor()
        self.node.start(identity_vector)
        await self.flush()

    async def flush(self) -> None:
        """Deliver what the node just emitted, then signal once it is done."""
        while self._outbox:
            await self.send(self._outbox.pop(0))
        if self.node.final_result is not None:
            self.finished.set()

    def _require_successor(self) -> None:
        # Checked here so a mis-wired party fails with this substrate's error.
        if self.node.successor is None or self.successor_address is None:
            raise DeployError(f"{self.node.node_id} has no successor configured")

    async def send(self, message: Message) -> None:
        _reader, writer = await asyncio.open_connection(*self.successor_address)
        body = message.encode()
        writer.write(len(body).to_bytes(PREFIX_BYTES, "big") + body)
        await writer.drain()
        writer.close()


async def _run_async(
    setup: RunSetup,
    query: TopKQuery,
    host: str,
    timeout: float,
) -> TcpRunResult:
    node_ids, ring, starter = setup.node_ids, setup.ring, setup.starter
    parties = {
        node_id: _AsyncParty(
            node_id,
            algorithm,
            is_starter=(node_id == starter),
            total_rounds=setup.total_rounds,
        )
        for node_id, algorithm in setup.algorithms.items()
    }
    try:
        for party in parties.values():
            party.server = await asyncio.start_server(
                party.handle_connection, host, 0
            )
            party.address = party.server.sockets[0].getsockname()[:2]
        for node_id in node_ids:
            successor = ring.successor(node_id)
            parties[node_id].node.successor = successor
            parties[node_id].successor_address = parties[successor].address

        await parties[starter].kick_off(
            [float(v) for v in query.identity_vector()]
        )
        # Each party finishes on its result or on its failure; the first
        # failure ends the run, as on the thread substrate.
        finishing = [
            asyncio.ensure_future(p.finished.wait()) for p in parties.values()
        ]
        for finished in asyncio.as_completed(finishing, timeout=timeout):
            await finished
            for node_id, party in parties.items():
                if party.error is not None:
                    raise DeployError(
                        f"party {node_id!r} failed: {party.error}"
                    ) from party.error
    finally:
        for party in parties.values():
            if party.server is not None:
                party.server.close()
                await party.server.wait_closed()

    return assemble_result(
        setup,
        addresses={n: parties[n].address for n in node_ids},
        finals={n: parties[n].node.final_result for n in node_ids},
        observations={n: list(parties[n].observations) for n in node_ids},
    )


def run_async_topk(
    local_vectors: dict[str, list[float]],
    query: TopKQuery,
    *,
    params: ProtocolParams | None = None,
    protocol: str = "probabilistic",
    seed: int | None = None,
    host: str = "127.0.0.1",
    timeout: float = 30.0,
) -> TcpRunResult:
    """Run one top-k query with every party as an asyncio stream server.

    Same contract and result type as :func:`repro.deploy.run_tcp_topk`.
    """
    setup = initialize_deployment(local_vectors, query, params, protocol, seed)
    return asyncio.run(_run_async(setup, query, host, timeout))
