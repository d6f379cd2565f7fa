"""Simulated peer-to-peer network substrate: transport, ring, nodes."""

from .._lazy import lazy_exports

_EXPORTS = {
    "events": ("EventLog", "Observation"),
    "failures": ("FailureInjector",),
    "message": (
        "Message",
        "MessageError",
        "MessageType",
        "result_message",
        "token_message",
    ),
    "node": ("LocalAlgorithm", "NodeError", "ProtocolNode"),
    "ring": ("RingError", "RingTopology"),
    "stats": ("TrafficStats",),
    "transport": ("InMemoryTransport", "TransportError"),
    "trust": ("TrustError", "TrustGraph", "build_trusted_ring"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
