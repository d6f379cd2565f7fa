"""Shard backends: in-process federations and worker processes.

A *shard* is one complete :class:`~repro.federation.coordinator.Federation`
serving a slice of the table space.  Two interchangeable backends implement
the same small surface (``members``, ``execute_many_settled``,
``try_cached``, ``peek``, ``cache_stats``, ``close``):

:class:`LocalShard`
    Wraps a federation in this process.  Deterministic and traceable — the
    property tests' substrate, and the default for ``serve --shards``.

:class:`ProcessShard`
    A client to a worker process forked from the gateway
    (:mod:`repro.sharding.worker`) speaking framed JSON over TCP (the
    deploy layer's wire framing).  Every socket operation runs under a
    timeout and every transport failure — refused
    connection, timeout, reset, truncated frame, a reply that is not the
    JSON shape the request calls for — surfaces as a typed
    :class:`~repro.sharding.errors.ShardUnavailable`, never a hang: a
    SIGKILLed worker degrades exactly the statements routed to it.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import tempfile
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from typing import IO, TypeVar

from ..deploy.wire import WireError
from ..federation.cache import CachedAnswer
from ..federation.coordinator import Federation, QueryOutcome, QueryRefused
from ..observability.trace import TraceContext
from ..planner.plan import Plan
from . import worker
from .errors import ShardError, ShardUnavailable
from .protocol import (
    decode_answer,
    decode_outcome,
    decode_settled,
    recv_json,
    send_json,
    well_formed,
)

_T = TypeVar("_T")

#: How much of a worker's stderr a boot failure quotes (its last bytes).
_STDERR_TAIL = 8192


class LocalShard:
    """One federation living in the gateway's own process."""

    #: Local shards share the caller's tracer and interpreter state, so the
    #: sharded federation dispatches to them sequentially (deterministic
    #: traces); process shards are safe to fan out on threads.
    concurrent = False

    def __init__(self, federation: Federation, *, index: int = 0) -> None:
        self.federation = federation
        self.index = index

    def members(self) -> tuple[str, ...]:
        return self.federation.members

    def execute_many_settled(
        self,
        statements: Sequence[str],
        *,
        issuer: str = "anonymous",
        traces: "Sequence[TraceContext | None] | None" = None,
        plans: "Sequence[Plan | None] | None" = None,
    ) -> "list[QueryOutcome | QueryRefused]":
        try:
            return self.federation.execute_many_settled(
                statements, issuer=issuer, traces=traces, plans=plans
            )
        except Exception as exc:  # noqa: BLE001 — a failed batch refuses its statements
            error = ShardError(
                f"shard {self.index} failed its batch: {type(exc).__name__}: {exc}"
            )
            error.__cause__ = exc
            return [QueryRefused(statement=text, error=error) for text in statements]

    def try_cached(
        self, statement: str, *, issuer: str = "anonymous"
    ) -> QueryOutcome | None:
        return self.federation.try_cached(statement, issuer=issuer)

    def peek(self, statement: str) -> CachedAnswer | None:
        """The statement's cache-valid answer, served to nobody."""
        return self.federation._peek_inner(statement)

    def cache_stats(self) -> tuple[int, int]:
        cache = self.federation.cache
        return cache.hits, cache.misses

    def register(self, database) -> None:
        self.federation.register(database)

    def deregister(self, owner: str) -> None:
        self.federation.deregister(owner)

    def close(self) -> None:
        return None


class _Child:
    """A forked worker as the gateway holds it: pid, announce pipe, exit status."""

    def __init__(self, pid: int, announce: int) -> None:
        self.pid = pid
        #: The read end of the pipe the worker announces its port on; closed
        #: (``None``) once the handshake has read it.
        self.announce: int | None = announce
        self.returncode: int | None = None

    def wait(self, timeout: float) -> bool:
        """Reap the child within ``timeout`` seconds; whether it was."""
        deadline = time.monotonic() + timeout
        delay = 0.0005
        while self.returncode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
            elif time.monotonic() >= deadline:
                return False
            else:
                time.sleep(delay)
                delay = min(delay * 2, 0.05)
        return True

    def kill(self) -> None:
        """SIGKILL and reap."""
        if self.returncode is None:
            os.kill(self.pid, signal.SIGKILL)
            self.returncode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])

    def close_announce(self) -> None:
        if self.announce is not None:
            os.close(self.announce)
            self.announce = None


class ProcessShard:
    """Client to one forked shard worker over framed JSON / TCP."""

    concurrent = True

    def __init__(
        self,
        process: _Child,
        stderr: IO[bytes],
        *,
        index: int = 0,
        timeout: float = 10.0,
        members: Iterable[str] = (),
    ) -> None:
        self.host = "127.0.0.1"
        self.port = 0  # the worker announces it: see ``handshake``
        self.index = index
        self.timeout = timeout
        self.process = process
        self._stderr = stderr
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()
        #: The worker's parties, known without a wire call (a dead worker
        #: still has them): the launcher's, then moved by this client's own
        #: successful ``deregister``.
        self._members = tuple(sorted(members))

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def launch(
        cls,
        build: Callable[[], Federation],
        *,
        index: int = 0,
        timeout: float = 10.0,
        members: Iterable[str] = (),
    ) -> "ProcessShard":
        """Fork a worker that serves the federation ``build()`` returns.

        The child starts from this process's loaded image — no interpreter
        start, no imports, nothing serialised — and runs
        :func:`~repro.sharding.worker.run`, which never returns here.  This
        returns as soon as the child exists, so a caller booting many
        workers starts them all before it waits for any (:meth:`handshake`).
        The worker's stderr goes to an unlinked temporary file: nobody
        drains a pipe while the worker lives, and a full one would block it
        mid-request.  A fork copies only the calling thread, so with any
        other thread alive this raises :class:`ShardError` and forks nothing.
        """
        if not hasattr(os, "fork"):
            raise ShardError(
                "process shards fork their workers and this platform has no "
                "os.fork: run these shards in-process"
            )
        threads = threading.active_count()
        if threads > 1:
            raise ShardError(
                f"process shards fork their workers, which is unsafe with "
                f"{threads} threads alive: launch them before starting a thread"
            )
        stderr = tempfile.TemporaryFile()
        try:
            announce, announced = os.pipe()
        except BaseException:
            stderr.close()
            raise
        try:
            pid = os.fork()
        except BaseException:
            os.close(announce)
            os.close(announced)
            stderr.close()
            raise
        if pid == 0:
            worker.run(
                lambda: LocalShard(build(), index=index), announced, stderr.fileno()
            )
        os.close(announced)
        return cls(
            _Child(pid, announce), stderr, index=index, timeout=timeout,
            members=members,
        )

    def handshake(self, boot_timeout: float = 30.0) -> None:
        """Wait for the worker's ``PORT <n>`` line, the one synchronization
        point: the worker closes the pipe right after writing it, so once it
        is read to its end the worker is accepting and holds no descriptor
        but its own, and no request races the boot.  A worker that dies
        instead (its build raised) closes the pipe and one still silent at
        ``boot_timeout`` is killed; either way the worker is reaped and
        :class:`ShardError` carries the tail of its stderr.
        """
        fd = self.process.announce
        assert fd is not None
        deadline = time.monotonic() + boot_timeout
        line = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                break
            chunk = os.read(fd, 64)
            if not chunk:
                break
            line += chunk
        self.process.close_announce()
        if line.startswith(b"PORT "):
            self.port = int(line.split()[1])
            return
        self.process.kill()
        size = self._stderr.seek(0, os.SEEK_END)
        self._stderr.seek(max(0, size - _STDERR_TAIL))
        stderr = self._stderr.read().decode(errors="replace")
        self._close_pipes()
        raise ShardError(
            f"shard {self.index} worker failed to start "
            f"(got {line.decode(errors='replace')!r}): {stderr.strip()}"
        )

    def close(self) -> None:
        """Graceful shutdown: ask the worker to exit, then reap it."""
        try:
            self._request({"op": "shutdown"})
        except ShardUnavailable:
            pass
        self._drop_socket()
        if not self.process.wait(self.timeout):
            self.process.kill()
        self._close_pipes()

    def kill(self) -> None:
        """SIGKILL the worker process (the chaos sweep's failure mode)."""
        self.process.kill()
        self._drop_socket()
        self._close_pipes()

    def _close_pipes(self) -> None:
        self.process.close_announce()
        self._stderr.close()

    # -- wire ---------------------------------------------------------------

    def _drop_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        sock.settimeout(self.timeout)
        return sock

    def _request(
        self, payload: dict, decode: "Callable[[dict], _T]" = lambda reply: reply
    ) -> _T:
        """One request/response exchange; typed failure on any wire error.

        The socket is persistent across requests; a stale socket (worker
        restarted between calls) gets exactly one reconnect attempt, but a
        failure *mid-exchange* does not retry — the worker may have half-
        executed the batch, and replaying it would double protocol runs and
        exposure.

        ``decode`` reads the answer out of an accepted reply *inside* this
        boundary, so a reply of the wrong shape is a wire failure like a
        truncated one, not an ``AttributeError`` somewhere in the gateway.
        """
        op = payload.get("op")
        with self._lock:
            fresh = self._sock is None
            try:
                if self._sock is None:
                    self._sock = self._connect()
                send_json(self._sock, payload)
                response = recv_json(self._sock)
                accepted = response.get("ok")
                if accepted is True:
                    with well_formed(f"{op!r} reply"):
                        return decode(response)
                if accepted is not False:
                    raise WireError(f"malformed {op!r} reply: no boolean 'ok'")
            except (OSError, WireError) as exc:
                self._drop_socket()
                how = "unreachable" if fresh else "failed mid-request"
                raise ShardUnavailable(
                    f"shard {self.index} at {self.host}:{self.port} {how}: {exc}",
                    shard=self.index,
                ) from exc
        raise ShardError(
            f"shard {self.index} rejected {op!r}: {response.get('message')}"
        )

    # -- shard surface -------------------------------------------------------

    def members(self) -> tuple[str, ...]:
        return self._members

    def execute_many_settled(
        self,
        statements: Sequence[str],
        *,
        issuer: str = "anonymous",
        traces: "Sequence[TraceContext | None] | None" = None,
        plans: "Sequence[Plan | None] | None" = None,
    ) -> "list[QueryOutcome | QueryRefused]":
        # Traces and plan objects stay in the gateway process: spans for
        # remote work are recorded by the sharded federation around this
        # call, and workers re-plan SLO'd statements themselves.
        del traces, plans

        def decode(reply: dict) -> "list[QueryOutcome | QueryRefused]":
            settled = decode_settled(reply["results"])
            if len(settled) != len(statements):
                raise WireError(
                    f"{len(settled)} results for {len(statements)} statements"
                )
            return settled

        return self._request(
            {
                "op": "execute_many_settled",
                "statements": list(statements),
                "issuer": issuer,
            },
            decode,
        )

    def try_cached(
        self, statement: str, *, issuer: str = "anonymous"
    ) -> QueryOutcome | None:
        return self._request(
            {"op": "try_cached", "statement": statement, "issuer": issuer},
            lambda reply: (
                None if reply["outcome"] is None else decode_outcome(reply["outcome"])
            ),
        )

    def peek(self, statement: str) -> CachedAnswer | None:
        return self._request(
            {"op": "peek", "statement": statement},
            lambda reply: decode_answer(reply["answer"]),
        )

    def cache_stats(self) -> tuple[int, int]:
        return self._request(
            {"op": "cache_stats"},
            lambda reply: (int(reply["hits"]), int(reply["misses"])),
        )

    def register(self, database) -> None:
        raise ShardError(
            "registering a live database object over the wire is not supported"
        )

    def deregister(self, owner: str) -> None:
        self._request({"op": "deregister", "owner": owner})
        self._members = tuple(m for m in self._members if m != owner)


__all__ = ["LocalShard", "ProcessShard"]
