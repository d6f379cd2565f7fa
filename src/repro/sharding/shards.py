"""Shard backends: in-process federations and worker processes.

A *shard* is one complete :class:`~repro.federation.coordinator.Federation`
serving a slice of the table space.  Two interchangeable backends implement
the same small surface (``members``, ``execute_many_settled``,
``try_cached``, ``peek``, their batched ``try_cached_many`` /
``peek_many``, ``cache_stats``, ``close``):

:class:`LocalShard`
    Wraps a federation in this process.  Deterministic and traceable — the
    property tests' substrate, and the default for ``serve --shards``.

:class:`ProcessShard`
    A client to a worker process forked from the gateway
    (:mod:`repro.sharding.worker`) speaking framed JSON over TCP (the
    deploy layer's wire framing).  Every socket operation runs under a
    timeout and every transport failure — refused
    connection, timeout, reset, truncated frame, a reply that is not the
    JSON shape the request calls for, a reply naming another statement than
    the one it answers — surfaces as a typed
    :class:`~repro.sharding.errors.ShardUnavailable`, never a hang: a
    SIGKILLed worker degrades exactly the statements routed to it.  Its hits
    decode onto the gateway's own texts, and a spelling's repeat hits return
    one shared outcome, as a local shard's cache entries do.
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
from dataclasses import dataclass
from typing import IO, Any, TypeVar

from ..core.driver import RunConfig
from ..database.schema import Schema, SchemaError
from ..deploy.wire import WireError
from ..federation.cache import CachedAnswer
from ..federation.coordinator import Federation, QueryOutcome, QueryRefused, resolve
from ..federation.outcomes import SharedOutcomes
from ..observability.trace import TraceContext
from ..planner.plan import Plan
from . import worker
from .errors import ShardError, ShardUnavailable
from .protocol import (
    decode_answer,
    decode_outcome,
    decode_settled,
    encode_plan,
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
        #: The configuration a statement sent without a plan runs on.
        self.config = federation.config

    def members(self) -> tuple[str, ...]:
        return self.federation.members

    def resolve(self, statement) -> Exception | None:
        """Why ``statement`` cannot run on this shard at all, or ``None``."""
        return resolve(self.federation._ring(), statement)

    def execute_many_settled(
        self,
        statements: Sequence[str],
        *,
        issuer: str = "anonymous",
        traces: "Sequence[TraceContext | None] | None" = None,
        plans: "Sequence[Plan | None] | None" = None,
    ) -> "list[QueryOutcome | QueryRefused]":
        """Serve a sub-batch, each statement on the plan it is handed
        (``None``: the base configuration); handed none at all, the shard's
        federation chooses for itself, as a flat one does."""
        try:
            return self.federation._execute_batch(
                list(statements), issuer, traces=traces, plans=plans
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
        return self.federation._peek(statement)

    def try_cached_many(
        self, statements: Sequence[str], *, issuer: str = "anonymous"
    ) -> "Callable[[], list[QueryOutcome | None]]":
        """:meth:`try_cached` per statement, in order; returns the call that
        hands the outcomes back (a process shard's reads its reply)."""
        outcomes = [self.try_cached(text, issuer=issuer) for text in statements]
        return lambda: outcomes

    def peek_many(
        self, statements: Sequence[str]
    ) -> "Callable[[], list[CachedAnswer | None]]":
        """:meth:`peek` per statement; returns the call that hands them back."""
        answers = [self.peek(text) for text in statements]
        return lambda: answers

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


@dataclass(frozen=True)
class _PublicTable:
    """A table as Section 3.2 makes it public: its schema, no rows."""

    schema: Schema


@dataclass(frozen=True)
class _PublicParty:
    """A party as Section 3.2 makes it public: its name and its tables'
    schemas, read as :func:`~repro.federation.coordinator.resolve` reads a
    database (``owner``, ``table(name).schema``)."""

    owner: str
    tables: dict[str, _PublicTable]

    @classmethod
    def of(cls, database) -> "_PublicParty":
        return cls(database.owner, {
            name: _PublicTable(table.schema) for name, table in database._tables.items()
        })

    def table(self, name: str) -> _PublicTable:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"no such table: {name!r}") from None


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
        parties: Iterable[_PublicParty] = (),
        config: RunConfig | None = None,
    ) -> None:
        self.host = "127.0.0.1"
        self.port = 0  # the worker announces it: see ``handshake``
        self.index = index
        self.timeout = timeout
        self.process = process
        self._stderr = stderr
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()
        #: The worker's parties in ring order, each with its public schemas,
        #: known without a wire call (a dead worker still has them): the
        #: launcher's, then moved by this client's own successful
        #: ``deregister``.
        self._parties = tuple(sorted(parties, key=lambda party: party.owner))
        #: The configuration the worker runs a statement sent without a plan
        #: on (the launcher's, as ``members`` is).
        self.config = config if config is not None else RunConfig()
        #: Per spelling, the last hit outcome decoded: a hit whose fields are
        #: bit for bit the last one's is that outcome, one object per
        #: spelling, as a local shard's cache entry serves it.
        self._hits = SharedOutcomes()

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def launch(cls, shard: LocalShard, *, timeout: float = 10.0) -> "ProcessShard":
        """Fork a worker that serves ``shard``, built in this process.

        The child starts from this process's loaded image — no interpreter
        start, no imports, nothing serialised, nothing built — and runs
        :func:`~repro.sharding.worker.run`, which never returns here.  This
        returns as soon as the child exists, so a caller booting many
        workers starts them all before it waits for any (:meth:`handshake`).
        The worker's stderr goes to an unlinked temporary file: nobody
        drains a pipe while the worker lives, and a full one would block it
        mid-request.  A fork copies only the calling thread, so with any
        other thread alive this raises :class:`ShardError` and forks nothing.
        The client keeps the shard's index, its parties' names and public
        schemas and its base configuration, so the gateway knows them
        without a wire call, and no reference to the shard itself.
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
            worker.run(lambda: shard, announced, stderr.fileno())
        os.close(announced)
        return cls(
            _Child(pid, announce), stderr, index=shard.index, timeout=timeout,
            parties=[_PublicParty.of(db) for db in shard.federation._ring()],
            config=shard.config,
        )

    def handshake(self, boot_timeout: float = 30.0) -> None:
        """Wait for the worker's ``PORT <n>`` line, the one synchronization
        point: the worker closes the pipe right after writing it, so once it
        is read to its end the worker is accepting and holds no descriptor
        but its own, and no request races the boot.  A worker that dies
        instead (its boot raised) closes the pipe and one still silent at
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

        The socket is persistent across requests and opened on first use; a
        failure *mid-exchange* does not retry — the worker may have half-
        executed the batch, and replaying it would double protocol runs and
        exposure.

        ``decode`` reads the answer out of an accepted reply *inside* this
        boundary, so a reply of the wrong shape is a wire failure like a
        truncated one, not an ``AttributeError`` somewhere in the gateway.
        """
        return self._post(payload, decode)()

    def _post(
        self, payload: dict, decode: "Callable[[dict], _T]" = lambda reply: reply
    ) -> "Callable[[], _T]":
        """:meth:`_request` in two halves: write the request frame now and
        return the call that reads and decodes its reply.

        The shard's lock is held from the write until that call returns, so
        the caller must make it, whatever happens elsewhere meanwhile; a
        caller posting to several shards posts in shard order, so two such
        callers never wait on each other's locks.
        """
        op = payload.get("op")
        self._lock.acquire()
        fresh = self._sock is None
        try:
            if self._sock is None:
                self._sock = self._connect()
            send_json(self._sock, payload)
        except (OSError, WireError) as exc:
            unavailable = self._unavailable(exc, fresh)
            self._lock.release()
            raise unavailable from exc
        except BaseException:
            self._lock.release()
            raise

        def reply() -> _T:
            try:
                response = recv_json(self._sock)
                accepted = response.get("ok")
                if accepted is True:
                    with well_formed(f"{op!r} reply"):
                        return decode(response)
                if accepted is not False:
                    raise WireError(f"malformed {op!r} reply: no boolean 'ok'")
            except (OSError, WireError) as exc:
                raise self._unavailable(exc, fresh) from exc
            finally:
                self._lock.release()
            raise ShardError(
                f"shard {self.index} rejected {op!r}: {response.get('message')}"
            )

        return reply

    def _unavailable(self, exc: Exception, fresh: bool) -> ShardUnavailable:
        """Drop the socket and name the failure (the lock is held)."""
        self._drop_socket()
        how = "unreachable" if fresh else "failed mid-request"
        return ShardUnavailable(
            f"shard {self.index} at {self.host}:{self.port} {how}: {exc}",
            shard=self.index,
        )

    # -- shard surface -------------------------------------------------------

    def members(self) -> tuple[str, ...]:
        return tuple(party.owner for party in self._parties)

    def resolve(self, statement) -> Exception | None:
        """Why ``statement`` cannot run on this shard at all, or ``None``:
        decided on the kept public schemas, with no wire call."""
        return resolve(self._parties, statement)

    def execute_many_settled(
        self,
        statements: Sequence[str],
        *,
        issuer: str = "anonymous",
        traces: "Sequence[TraceContext | None] | None" = None,
        plans: "Sequence[Plan | None] | None" = None,
    ) -> "list[QueryOutcome | QueryRefused]":
        # Traces stay in the gateway process: spans for remote work are
        # recorded by the sharded federation around this call.  Plans cross
        # as the fields the worker's executor reads.
        del traces
        request: dict = {
            "op": "execute_many_settled",
            "statements": list(statements),
            "issuer": issuer,
        }
        if plans is not None and any(plan is not None for plan in plans):
            request["plans"] = [encode_plan(plan) for plan in plans]
        return self._request(
            request,
            lambda reply: decode_settled(reply["results"], statements, self._hits),
        )

    def try_cached(
        self, statement: str, *, issuer: str = "anonymous"
    ) -> QueryOutcome | None:
        return self._request(
            {"op": "try_cached", "statement": statement, "issuer": issuer},
            lambda reply: self._hit(reply["outcome"], statement),
        )

    def _hit(self, entry: "dict | None", statement: str) -> QueryOutcome | None:
        """A ``try_cached`` reply entry for ``statement``; ``None`` is a miss."""
        if entry is None:
            return None
        return decode_outcome(entry, statement, self._hits)

    def peek(self, statement: str) -> CachedAnswer | None:
        return self._request(
            {"op": "peek", "statement": statement},
            lambda reply: decode_answer(reply["answer"]),
        )

    def try_cached_many(
        self, statements: Sequence[str], *, issuer: str = "anonymous"
    ) -> "Callable[[], list[QueryOutcome | None]]":
        """One ``try_cached_many`` frame for every statement, written now;
        the returned call reads the reply (see :meth:`_post`)."""
        return self._post(
            {
                "op": "try_cached_many",
                "statements": list(statements),
                "issuer": issuer,
            },
            lambda reply: _aligned(reply["outcomes"], statements, self._hit),
        )

    def peek_many(
        self, statements: Sequence[str]
    ) -> "Callable[[], list[CachedAnswer | None]]":
        """One ``peek_many`` frame for every statement, written now; the
        returned call reads the reply (see :meth:`_post`)."""
        return self._post(
            {"op": "peek_many", "statements": list(statements)},
            lambda reply: _aligned(
                reply["answers"], statements, lambda entry, _text: decode_answer(entry)
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
        self._parties = tuple(p for p in self._parties if p.owner != owner)
        # The worker's cache keys moved with its membership, so its next
        # hits are new answers, as a local shard's are.
        self._hits = SharedOutcomes()


def _aligned(
    entries: object,
    statements: Sequence[str],
    decode: "Callable[[Any, str], _T]",
) -> "list[_T]":
    """A batched reply's entries, each decoded against the statement it
    answers: exactly one per statement."""
    if not isinstance(entries, list) or len(entries) != len(statements):
        raise WireError(f"expected {len(statements)} entries, got {entries!r:.80}")
    return [decode(entry, text) for entry, text in zip(entries, statements)]


__all__ = ["LocalShard", "ProcessShard"]
