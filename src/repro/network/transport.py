"""In-memory message transport with simulated latency, encryption and accounting.

This is the substrate substitution documented in DESIGN.md: the paper's
protocol runs over a real network, but its correctness and privacy behaviour
depend only on message contents and ordering, which this transport reproduces
exactly while adding per-message accounting that a real deployment could not
observe as cheaply.

Delivery model: ``send`` enqueues a message with a delivery timestamp drawn
from a latency model; ``deliver_next`` pops messages in timestamp order and
hands them to the registered handler.  Payloads are round-tripped through the
channel cipher when a keyring is configured, so the encryption path is
genuinely exercised.

Multi-query pipelining: endpoints register under a *channel* (the message's
``query`` tag), so several independent protocol runs — each with the same
party names — can interleave their tokens on one shared transport.  Delivery
remains strictly (timestamp, seq)-ordered across channels, which is what
makes the interleaving fair: no query can starve another, and a batch of Q
queries completes in simulated time close to the *slowest* query rather than
the sum.  Per-channel accounting (:meth:`InMemoryTransport.open_channel`)
gives every query its own :class:`~repro.network.stats.TrafficStats`,
:class:`~repro.network.events.EventLog` and completion clock, identical to
what a dedicated transport would have recorded.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

from .crypto import Keyring
from .events import EventLog
from .failures import FailureInjector
from .message import Message
from .stats import TrafficStats

#: Latency models map (sender, receiver) -> seconds.
LatencyModel = Callable[[str, str], float]
Handler = Callable[[Message], None]

#: Delivery bound covering one query's worth of traffic; multi-query callers
#: scale this by the number of interleaved queries.
DEFAULT_MAX_DELIVERIES = 1_000_000


def constant_latency(seconds: float = 0.001) -> LatencyModel:
    """Same latency on every link."""
    if seconds < 0:
        raise ValueError("latency must be non-negative")
    return lambda _sender, _receiver: seconds


class TransportError(RuntimeError):
    """Raised on misuse of the transport (unknown endpoints, etc.)."""


@dataclass
class ChannelAccounting:
    """Per-query bookkeeping on a shared transport.

    ``last_delivery_at`` is the simulated timestamp of the channel's most
    recent delivery — for a completed protocol run it is that query's
    completion time, the quantity the throughput benchmarks compare against
    sequential execution.

    ``on_delivery`` is the tracing tap: when set, it is invoked for every
    delivery on this channel with the (decrypted) message and the simulated
    delivery time, after the accounting above is recorded and before the
    receiver's handler runs — so a hop span exists by the time any round
    hook fires.
    """

    stats: TrafficStats = field(default_factory=TrafficStats)
    event_log: EventLog = field(default_factory=EventLog)
    last_delivery_at: float = 0.0
    deliveries: int = 0
    on_delivery: "Callable[[Message, float], None] | None" = None


@dataclass(frozen=True)
class _Envelope:
    deliver_at: float
    seq: int
    message: Message
    ciphertext: bytes | None

    def __lt__(self, other: "_Envelope") -> bool:
        return (self.deliver_at, self.seq) < (other.deliver_at, other.seq)


class InMemoryTransport:
    """Point-to-point transport among registered endpoints."""

    def __init__(
        self,
        *,
        latency: LatencyModel | None = None,
        keyring: Keyring | None = None,
        failures: FailureInjector | None = None,
        event_log: EventLog | None = None,
    ) -> None:
        self._latency = latency or constant_latency()
        self._keyring = keyring
        self._failures = failures
        #: Handlers keyed by (channel, node id); channel "" is the classic
        #: single-query traffic, a query id otherwise.
        self._handlers: dict[tuple[str, str], Handler] = {}
        self._channels: dict[str, ChannelAccounting] = {}
        self._queue: list[_Envelope] = []
        self._seq = itertools.count()
        self._clock = 0.0
        self.stats = TrafficStats()
        self.event_log = event_log if event_log is not None else EventLog()
        self.dropped = 0

    # -- membership -----------------------------------------------------------

    def register(self, node_id: str, handler: Handler, *, channel: str = "") -> None:
        """Attach a delivery handler for ``node_id`` on ``channel``.

        The same node id may be registered once per channel, which is how one
        party participates in many in-flight queries simultaneously.
        """
        if (channel, node_id) in self._handlers:
            raise TransportError(
                f"node {node_id!r} already registered"
                + (f" on channel {channel!r}" if channel else "")
            )
        self._handlers[(channel, node_id)] = handler

    # -- per-query accounting -------------------------------------------------

    def open_channel(self, channel: str) -> ChannelAccounting:
        """Create (or return) the accounting record for ``channel``.

        Deliveries tagged with ``channel`` are recorded into its stats and
        event log *in addition to* the transport-wide ones, so a query on a
        shared transport sees exactly the accounting a dedicated transport
        would have produced.
        """
        return self._channels.setdefault(channel, ChannelAccounting())

    # -- clock ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Simulated time, advanced by deliveries."""
        return self._clock

    # -- sending/delivery ---------------------------------------------------------

    def send(self, message: Message) -> None:
        """Enqueue ``message`` for future delivery."""
        if (message.query, message.receiver) not in self._handlers:
            raise TransportError(
                f"unknown receiver: {message.receiver!r}"
                + (f" on channel {message.query!r}" if message.query else "")
            )
        if self._failures and self._failures.should_drop(message):
            self.dropped += 1
            return
        ciphertext = None
        if self._keyring is not None:
            ciphertext = self._keyring.seal(
                message.sender, message.receiver, message.encode()
            )
        deliver_at = self._clock + self._latency(message.sender, message.receiver)
        heapq.heappush(
            self._queue,
            _Envelope(deliver_at, next(self._seq), message, ciphertext),
        )

    def deliver_next(self) -> Message | None:
        """Deliver the earliest pending message; None when the queue is empty."""
        if not self._queue:
            return None
        envelope = heapq.heappop(self._queue)
        self._clock = max(self._clock, envelope.deliver_at)
        message = envelope.message
        if self._keyring is not None and envelope.ciphertext is not None:
            # Round-trip through the cipher: what the wire carried is the
            # ciphertext; the receiver decrypts and re-parses.
            raw = self._keyring.open(message.sender, message.receiver, envelope.ciphertext)
            message = Message.decode(raw)
        if self._failures and self._failures.is_crashed(message.receiver):
            self.dropped += 1
            return None
        self.stats.record(message)
        self.event_log.record(message)
        accounting = self._channels.get(message.query)
        if accounting is not None:
            # Record before invoking the handler: round hooks fired from the
            # handler read the channel's event log for the just-delivered
            # message.
            accounting.stats.record(message)
            accounting.event_log.record(message)
            accounting.last_delivery_at = self._clock
            accounting.deliveries += 1
            if accounting.on_delivery is not None:
                accounting.on_delivery(message, self._clock)
        # ``send`` refused an unknown receiver and nothing unregisters one.
        self._handlers[(message.query, message.receiver)](message)
        return message

    def run_until_idle(self, max_deliveries: int = DEFAULT_MAX_DELIVERIES) -> int:
        """Pump the queue until empty; returns the number of deliveries.

        ``max_deliveries`` bounds runaway protocols (a delivery may enqueue
        follow-up messages).  The default covers one query's worth of
        traffic; callers pumping Q interleaved queries should scale the
        bound by Q (``DEFAULT_MAX_DELIVERIES * q``) so a legitimate
        multi-query load is not misdiagnosed as a runaway protocol.
        """
        delivered = 0
        while self._queue:
            if delivered >= max_deliveries:
                raise TransportError(
                    f"exceeded {max_deliveries} deliveries; protocol did not quiesce"
                )
            if self.deliver_next() is not None:
                delivered += 1
        return delivered
