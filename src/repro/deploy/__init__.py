"""Deployment substrates: the protocol over real sockets (threads or asyncio)."""

from .._lazy import lazy_exports

_EXPORTS = {
    "async_runner": ("run_async_topk",),
    "runner": ("DeployError", "TcpRunResult", "run_tcp_topk"),
    "tcp_node": ("TcpNodeError", "TcpParty"),
    "wire": (
        "MAX_FRAME_BYTES",
        "PREFIX_BYTES",
        "WireError",
        "recv_frame",
        "send_frame",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
