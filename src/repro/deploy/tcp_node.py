"""One protocol party as a real TCP server thread.

Each party listens on its own localhost port, accepts one framed message per
connection, and hands it to the :class:`~repro.network.node.ProtocolNode` it
hosts — the same token/result state machine the simulator runs — whose
output goes to the successor's port: exactly the node-to-successor
communication scheme of Section 3.2, but over an actual network stack with
real concurrency.  What lives here is what only a socket substrate has:
framing, threads, connect retry, the received-message log and the
``finished`` signal.
"""

from __future__ import annotations

import random
import socket
import threading
import time

from ..network.message import Message
from ..network.node import LocalAlgorithm, ProtocolNode
from .wire import WireError, recv_frame, send_frame


class TcpNodeError(RuntimeError):
    """Raised on deployment-level failures (bind, connect, protocol state)."""


class TcpParty:
    """A single organization's protocol endpoint."""

    def __init__(
        self,
        node_id: str,
        algorithm: LocalAlgorithm,
        *,
        host: str = "127.0.0.1",
        is_starter: bool = False,
        total_rounds: int = 1,
        accept_timeout: float = 0.2,
        connect_timeout: float = 5.0,
        connect_retries: int = 3,
        retry_base_delay: float = 0.05,
        retry_max_delay: float = 2.0,
        retry_rng: random.Random | None = None,
    ) -> None:
        """``connect_timeout`` bounds each successor-connect attempt;
        ``connect_retries`` extra attempts follow a failed connect, spaced by
        exponential backoff with full jitter (``retry_base_delay`` doubling
        up to ``retry_max_delay``), so a ring whose peers start at different
        speeds converges instead of failing on the first slow starter.
        ``retry_rng`` seeds the jitter for deterministic tests.
        """
        if connect_timeout <= 0:
            raise ValueError(f"connect_timeout must be > 0, got {connect_timeout}")
        if connect_retries < 0:
            raise ValueError(f"connect_retries must be >= 0, got {connect_retries}")
        if retry_base_delay <= 0 or retry_max_delay < retry_base_delay:
            raise ValueError(
                "retry delays must satisfy 0 < retry_base_delay <= retry_max_delay"
            )
        self.node_id = node_id
        self.node = ProtocolNode(
            node_id,
            algorithm,
            self._send,
            is_starter=is_starter,
            total_rounds=total_rounds,
        )
        self.connect_timeout = connect_timeout
        self.connect_retries = connect_retries
        self.retry_base_delay = retry_base_delay
        self.retry_max_delay = retry_max_delay
        self._retry_rng = retry_rng if retry_rng is not None else random.Random()
        self.successor_address: tuple[str, int] | None = None
        self.finished = threading.Event()
        self.error: Exception | None = None
        #: Local passive log: every (round, kind, vector) this party received
        #: — the semi-honest adversary's view, and the basis of parity
        #: checks against the simulator.
        self.observations: list[tuple[int, str, tuple[float, ...]]] = []
        self._accept_timeout = accept_timeout
        self._stop = threading.Event()
        self._server = socket.create_server((host, 0))
        self._server.settimeout(accept_timeout)
        self._address: tuple[str, int] = self._server.getsockname()
        self._thread = threading.Thread(
            target=self._serve, name=f"tcp-party-{node_id}", daemon=True
        )

    @property
    def address(self) -> tuple[str, int]:
        return self._address

    @property
    def successor_id(self) -> str | None:
        """Logical id of the ring successor; set by the runner."""
        return self.node.successor

    @successor_id.setter
    def successor_id(self, node_id: str | None) -> None:
        self.node.successor = node_id

    @property
    def final_result(self) -> list[float] | None:
        return self.node.final_result

    # -- lifecycle --------------------------------------------------------------

    def start_serving(self) -> None:
        self._thread.start()

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop serving; safe to call repeatedly or before serving started.

        Closing a socket does not wake a thread already parked in
        ``accept()`` (it sleeps out its poll timeout), so shutdown first
        pokes the server with an empty wake-up connection — the serve loop
        sees the stop flag and exits within microseconds.
        """
        self._stop.set()
        if self._thread.is_alive():
            try:
                with socket.create_connection(self._address, timeout=1.0):
                    pass  # zero-byte connect: only purpose is waking accept()
            except OSError:
                pass
            self._thread.join(timeout=timeout)
        self._server.close()

    def _serve(self) -> None:
        try:
            while not self._stop.is_set():
                try:
                    connection, _peer = self._server.accept()
                except TimeoutError:
                    continue
                except OSError:
                    return  # server socket closed under us
                with connection:
                    try:
                        body = recv_frame(connection)
                    except WireError:
                        if self._stop.is_set():
                            return  # the shutdown wake-up connection
                        raise
                self._handle_raw(body)
        except (WireError, OSError, ValueError, TcpNodeError) as exc:
            if self._stop.is_set():
                return  # failures during teardown are not protocol errors
            self.error = exc
            self.finished.set()

    # -- protocol ----------------------------------------------------------------

    def kick_off(self, identity_vector: list[float]) -> None:
        """Starter only: compute and send the round-1 token."""
        if not self.node.is_starter:
            raise TcpNodeError(f"{self.node_id} is not the starting party")
        self._require_successor()
        self.node.start(identity_vector)

    def _require_successor(self) -> None:
        # Checked here so a mis-wired party fails with this substrate's error.
        if self.successor_id is None:
            raise TcpNodeError(f"{self.node_id} has no successor configured")

    def _handle_raw(self, body: bytes) -> None:
        message = Message.decode(body)
        vector = tuple(float(v) for v in message.payload.get("vector", ()))
        self.observations.append((message.round, message.type.value, vector))
        self._require_successor()
        self.node.handle(message)
        if self.final_result is not None:
            self.finished.set()

    def _send(self, message: Message) -> None:
        if self.successor_address is None:
            raise TcpNodeError(f"{self.node_id} has no successor address")
        with self._connect_successor() as sock:
            send_frame(sock, message.encode())

    def _connect_successor(self) -> socket.socket:
        """Connect to the successor, retrying with backoff + full jitter.

        A freshly-deployed ring has no ordering guarantee between "party A
        sends" and "party B finished binding": tolerate slow-starting peers
        by retrying refused/timed-out connects, sleeping a uniformly-jittered
        slice of an exponentially-growing window between attempts (full
        jitter avoids synchronized retry storms when a whole ring waits on
        one slow peer).
        """
        assert self.successor_address is not None
        last_error: OSError | None = None
        for attempt in range(self.connect_retries + 1):
            if self._stop.is_set():
                raise TcpNodeError(f"{self.node_id} is shutting down")
            try:
                return socket.create_connection(
                    self.successor_address, timeout=self.connect_timeout
                )
            except OSError as exc:
                last_error = exc
                if attempt == self.connect_retries:
                    break
                window = min(
                    self.retry_max_delay, self.retry_base_delay * (2**attempt)
                )
                time.sleep(self._retry_rng.uniform(0.0, window))
        raise TcpNodeError(
            f"{self.node_id} could not connect to successor at "
            f"{self.successor_address} after {self.connect_retries + 1} "
            f"attempt(s): {last_error}"
        ) from last_error
