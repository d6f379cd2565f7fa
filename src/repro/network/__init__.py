"""Simulated peer-to-peer network substrate: transport, ring, nodes, crypto."""

from .crypto import ChannelKey, CryptoError, Keyring
from .events import EventLog, Observation
from .failures import FailureInjector
from .message import (
    Message,
    MessageError,
    MessageType,
    result_message,
    token_message,
)
from .node import LocalAlgorithm, NodeError, ProtocolNode
from .ring import RingError, RingTopology
from .stats import TrafficStats
from .transport import (
    BandwidthLatency,
    InMemoryTransport,
    LatencyModel,
    TransportError,
    constant_latency,
)
from .trust import TrustError, TrustGraph, build_trusted_ring

__all__ = [
    "BandwidthLatency",
    "ChannelKey",
    "CryptoError",
    "EventLog",
    "FailureInjector",
    "InMemoryTransport",
    "Keyring",
    "LatencyModel",
    "LocalAlgorithm",
    "Message",
    "MessageError",
    "MessageType",
    "NodeError",
    "Observation",
    "ProtocolNode",
    "RingError",
    "RingTopology",
    "TrafficStats",
    "TransportError",
    "TrustError",
    "TrustGraph",
    "build_trusted_ring",
    "constant_latency",
    "result_message",
    "token_message",
]
