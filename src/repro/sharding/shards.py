"""Shard backends: in-process federations and worker processes.

A *shard* is one complete :class:`~repro.federation.coordinator.Federation`
serving a slice of the table space.  Two interchangeable backends implement
the same small surface (``members``, ``execute_many_settled``,
``try_cached``, ``cache_stats``, ``close``):

:class:`LocalShard`
    Wraps a federation in this process.  Deterministic and traceable — the
    property tests' substrate, and the default for ``serve --shards``.

:class:`ProcessShard`
    A client to a :mod:`repro.sharding.worker` subprocess speaking framed
    JSON over TCP (the deploy layer's wire framing).  Every socket
    operation runs under a timeout and every transport failure — refused
    connection, timeout, reset, truncated frame, a reply that is not the
    JSON shape the request calls for — surfaces as a typed
    :class:`~repro.sharding.errors.ShardUnavailable`, never a hang: a
    SIGKILLed worker degrades exactly the statements routed to it.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import IO, TypeVar

from ..deploy.wire import WireError
from ..federation.coordinator import Federation, QueryOutcome, QueryRefused
from ..observability.trace import TraceContext
from ..planner.plan import Plan
from .errors import ShardError, ShardUnavailable
from .protocol import (
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
        return self.federation.execute_many_settled(
            statements, issuer=issuer, traces=traces, plans=plans
        )

    def try_cached(
        self, statement: str, *, issuer: str = "anonymous"
    ) -> QueryOutcome | None:
        return self.federation.try_cached(statement, issuer=issuer)

    def cache_stats(self) -> tuple[int, int]:
        cache = self.federation.cache
        return cache.hits, cache.misses

    def register(self, database) -> None:
        self.federation.register(database)

    def deregister(self, owner: str) -> None:
        self.federation.deregister(owner)

    def close(self) -> None:
        return None


class ProcessShard:
    """Client to one shard worker process over framed JSON / TCP."""

    concurrent = True

    def __init__(
        self,
        process: subprocess.Popen,
        stderr: IO[bytes],
        *,
        index: int = 0,
        timeout: float = 10.0,
        members: Sequence[str] = (),
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
        #: still has them): the spec's at launch, then moved by this
        #: client's own successful ``deregister``.
        self._members = tuple(sorted(members))

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def launch(
        cls, spec: dict, *, index: int = 0, timeout: float = 10.0
    ) -> "ProcessShard":
        """Start a :mod:`repro.sharding.worker` subprocess for ``spec``.

        Returns as soon as the process exists, so a caller booting many
        workers starts them all before it waits for any (:meth:`handshake`):
        the spec is the worker's stdin as a file, not a pipe the parent would
        block on until the worker has finished importing.  The worker's
        stderr goes to an unlinked temporary file — nobody drains a pipe
        while the worker lives, and a full one would block it mid-request.
        """
        src_dir = str(Path(__file__).resolve().parent.parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        stderr = tempfile.TemporaryFile()
        try:
            with tempfile.TemporaryFile("w+") as stdin:
                json.dump(spec, stdin)
                stdin.seek(0)
                process = subprocess.Popen(
                    [sys.executable, "-m", "repro.sharding.worker"],
                    stdin=stdin,
                    stdout=subprocess.PIPE,
                    stderr=stderr,
                    env=env,
                    text=True,
                )
        except BaseException:
            stderr.close()
            raise
        owners = [str(party["owner"]) for party in spec.get("parties", ())]
        return cls(process, stderr, index=index, timeout=timeout, members=owners)

    def handshake(self, boot_timeout: float = 30.0) -> None:
        """Wait for the worker's ``PORT <n>`` line, the one synchronization
        point: once it is read the worker is accepting, so no request races
        the boot.  A worker that dies instead (bad spec, import failure)
        closes stdout and one still silent at ``boot_timeout`` is killed;
        either way the read returns, the worker is reaped and
        :class:`ShardError` carries the tail of its stderr.
        """
        assert self.process.stdout is not None
        timer = threading.Timer(boot_timeout, self.process.kill)
        timer.start()
        try:
            line = self.process.stdout.readline()
        finally:
            timer.cancel()
        if line.startswith("PORT "):
            self.port = int(line.split()[1])
            return
        self.process.kill()
        self.process.wait()
        size = self._stderr.seek(0, os.SEEK_END)
        self._stderr.seek(max(0, size - _STDERR_TAIL))
        stderr = self._stderr.read().decode(errors="replace")
        self._close_pipes()
        raise ShardError(
            f"shard {self.index} worker failed to start (got {line!r}): "
            f"{stderr.strip()}"
        )

    def close(self) -> None:
        """Graceful shutdown: ask the worker to exit, then reap it."""
        try:
            self._request({"op": "shutdown"})
        except ShardUnavailable:
            pass
        self._drop_socket()
        try:
            self.process.wait(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._close_pipes()

    def kill(self) -> None:
        """SIGKILL the worker process (the chaos sweep's failure mode)."""
        self.process.kill()
        self.process.wait()
        self._drop_socket()
        self._close_pipes()

    def _close_pipes(self) -> None:
        if self.process.stdout is not None:
            self.process.stdout.close()
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
