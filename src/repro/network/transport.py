"""In-memory message transport with a simulated link delay and accounting.

This is the substrate substitution documented in DESIGN.md: the paper's
protocol runs over a real network, but its correctness and privacy behaviour
depend only on message contents and ordering, which this transport reproduces
exactly while adding per-message accounting that a real deployment could not
observe as cheaply.

Delivery model: ``send`` enqueues a message due :data:`LINK_SECONDS` after
the current simulated time; ``deliver_next`` pops the oldest and hands it to
the registered handler.  Every link has the same delay and the clock never
runs backwards, so a message sent later is never due earlier: the queue is a
FIFO and send order *is* timestamp order.  Links carry plaintext — the
successor who reads a token is the party the paper's privacy analysis is
about, and it would hold any channel key.

Multi-query pipelining: endpoints register under a *channel* (the message's
``query`` tag), so several independent protocol runs — each with the same
party names — can interleave their tokens on one shared transport.  Delivery
stays strictly in send order across channels, which is what makes the
interleaving fair: no query can starve another, and a batch of Q
queries completes in simulated time close to the *slowest* query rather than
the sum.  Per-channel accounting (:meth:`InMemoryTransport.open_channel`)
gives every query its own :class:`~repro.network.stats.TrafficStats`,
:class:`~repro.network.events.EventLog` and completion clock, identical to
what a dedicated transport would have recorded.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from .events import EventLog
from .failures import FailureInjector
from .message import Message
from .stats import TrafficStats

Handler = Callable[[Message], None]

#: Delivery bound covering one query's worth of traffic; multi-query callers
#: scale this by the number of interleaved queries.
DEFAULT_MAX_DELIVERIES = 1_000_000


#: Simulated delay of every ring link.  The message-free kernels step their
#: clocks by the same constant, in the same float-addition order.
LINK_SECONDS = 0.001


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
    delivery on this channel with the message and the simulated
    delivery time, after the accounting above is recorded and before the
    receiver's handler runs — so a hop span exists by the time any round
    hook fires.
    """

    stats: TrafficStats = field(default_factory=TrafficStats)
    event_log: EventLog = field(default_factory=EventLog)
    last_delivery_at: float = 0.0
    deliveries: int = 0
    on_delivery: "Callable[[Message, float], None] | None" = None


class InMemoryTransport:
    """Point-to-point transport among registered endpoints."""

    def __init__(
        self,
        *,
        failures: FailureInjector | None = None,
        event_log: EventLog | None = None,
    ) -> None:
        self._failures = failures
        #: Handlers keyed by (channel, node id); channel "" is the classic
        #: single-query traffic, a query id otherwise.
        self._handlers: dict[tuple[str, str], Handler] = {}
        self._channels: dict[str, ChannelAccounting] = {}
        #: (deliver_at, message) in send order, which is deliver_at order.
        self._queue: deque[tuple[float, Message]] = deque()
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
        self._queue.append((self._clock + LINK_SECONDS, message))

    def deliver_next(self) -> Message | None:
        """Deliver the earliest pending message; None when the queue is empty."""
        if not self._queue:
            return None
        self._clock, message = self._queue.popleft()
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
