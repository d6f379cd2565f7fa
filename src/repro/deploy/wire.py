"""Length-prefixed framing for protocol messages over TCP.

The simulated transport passes :class:`~repro.network.message.Message`
objects directly; the TCP deployment sends their canonical encoding over a
socket, framed with a 4-byte big-endian length prefix so messages survive
TCP's stream semantics intact.
"""

from __future__ import annotations

import socket

#: Upper bound on a frame body; a top-k token is a few hundred bytes, so
#: anything huge indicates corruption or a protocol error.
MAX_FRAME_BYTES = 1 << 20

#: Width of the big-endian length prefix.  Public because every substrate
#: that speaks this framing (thread-per-party TCP here, asyncio streams in
#: :mod:`repro.deploy.async_runner`) must share one value or frames written
#: by one cannot be read by the other.
PREFIX_BYTES = 4


class WireError(RuntimeError):
    """Raised on framing violations or truncated streams."""


def send_frame(sock: socket.socket, body: bytes) -> None:
    """Send one framed message."""
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    sock.sendall(len(body).to_bytes(PREFIX_BYTES, "big") + body)


def recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise on EOF."""
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise WireError(f"connection closed with {remaining} bytes pending")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> bytes:
    """Receive one framed message."""
    prefix = recv_exact(sock, PREFIX_BYTES)
    length = int.from_bytes(prefix, "big")
    if length > MAX_FRAME_BYTES:
        raise WireError(f"declared frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return recv_exact(sock, length)
