"""Shard worker: one federation behind a TCP request loop, in a forked child.

:meth:`ProcessShard.launch <repro.sharding.shards.ProcessShard.launch>`
forks the gateway around a shard it has already built
(:func:`~repro.sharding.topology.process_shards` builds every shard with
:func:`~repro.sharding.topology.local_shards` before the first fork), and
the child runs :func:`run`: it builds nothing, but binds an OS-assigned
localhost port, announces ``PORT <n>`` on a pipe, and then serves
framed-JSON requests (:mod:`repro.sharding.protocol`) until told to shut
down.  This is the process-per-shard deployment the ROADMAP's scale-out
item asks for: each shard is its own OS process speaking the deploy
layer's wire framing, so the chaos sweep can SIGKILL a *real* process and
the gateway must degrade through
:class:`~repro.sharding.errors.ShardUnavailable` refusals.
"""

from __future__ import annotations

import fcntl
import gc
import os
import socket
import traceback
from collections.abc import Callable
from typing import TYPE_CHECKING, NoReturn

from .protocol import (
    decode_plan,
    encode_outcome,
    encode_settled,
    recv_json,
    send_json,
)

if TYPE_CHECKING:
    from ..federation.cache import CachedAnswer
    from ..federation.outcomes import QueryOutcome
    from .shards import LocalShard


def _handle(shard: LocalShard, request: dict) -> dict:
    op = request.get("op")
    issuer = str(request.get("issuer", "anonymous"))
    texts = [str(s) for s in request.get("statements", ())]
    if op == "ping":
        return {"ok": True}
    if op == "cache_stats":
        hits, misses = shard.cache_stats()
        return {"ok": True, "hits": hits, "misses": misses}
    if op == "execute_many_settled":
        # A statement runs on the gateway's plan when the request carries one.
        plans = request.get("plans")
        settled = shard.execute_many_settled(
            texts,
            issuer=issuer,
            plans=None if plans is None else [decode_plan(p) for p in plans],
        )
        return {"ok": True, "results": encode_settled(settled)}
    if op == "try_cached":
        outcome = shard.try_cached(str(request.get("statement", "")), issuer=issuer)
        return {"ok": True, "outcome": _outcome(outcome)}
    if op == "peek":
        answer = shard.peek(str(request.get("statement", "")))
        return {"ok": True, "answer": _answer(answer)}
    # The batched forms carry every text of a fan-out in one frame; each
    # entry of the reply is exactly what the per-text reply carries.
    if op == "try_cached_many":
        outcomes = shard.try_cached_many(texts, issuer=issuer)()
        return {"ok": True, "outcomes": [_outcome(o) for o in outcomes]}
    if op == "peek_many":
        answers = shard.peek_many(texts)()
        return {"ok": True, "answers": [_answer(a) for a in answers]}
    if op == "deregister":
        shard.deregister(str(request["owner"]))
        return {"ok": True}
    if op == "shutdown":
        return {"ok": True, "bye": True}
    return {"ok": False, "message": f"unknown op {op!r}"}


def _outcome(outcome: "QueryOutcome | None") -> "dict | None":
    return None if outcome is None else encode_outcome(outcome)


def _answer(answer: "CachedAnswer | None") -> "dict | None":
    if answer is None:
        return None
    return {"values": list(answer.values), "protocol": answer.protocol}


def serve(shard: LocalShard, listener: socket.socket) -> None:
    """Accept loop: one connection at a time, requests served in order.

    The worker serves its shard's :class:`LocalShard` surface, the twin an
    in-process deployment holds, so a failed batch settles here as it would
    there.  A shard's federation is single-threaded state (seed draws, cache,
    ledger), so serial request handling is the correctness-preserving
    choice; concurrency across shards comes from running many workers.
    """
    while True:
        conn, _addr = listener.accept()
        with conn:
            while True:
                try:
                    request = recv_json(conn)
                except Exception:
                    break  # client gone; await the next connection
                try:
                    response = _handle(shard, request)
                except Exception as exc:  # noqa: BLE001 — reported, not fatal
                    response = {
                        "ok": False,
                        "message": f"{type(exc).__name__}: {exc}",
                    }
                try:
                    send_json(conn, response)
                except OSError:
                    break
                if response.get("bye"):
                    return


def run(boot: Callable[[], LocalShard], announce: int, stderr: int) -> NoReturn:
    """A forked worker's whole life: boot, announce, serve, ``os._exit``.

    It never returns into the gateway's frames: every path, a
    ``BaseException`` included, ends in ``os._exit``, so no gateway
    ``finally`` or ``atexit`` handler runs here.  Descriptors are left as
    ``close_fds=True`` would: stdin and stdout on ``/dev/null``, stderr on
    the ``stderr`` file, every other inherited one closed but the
    ``announce`` pipe.  ``gc.freeze()`` comes first, so no inherited object
    the collector would finalize later closes an fd number reused here, and
    the collector never walks (and so never copies) the inherited shard.
    ``boot()`` is the last step before the bind: it hands over the shard
    the gateway built.  A boot that raises leaves its traceback on stderr,
    which the gateway quotes.
    """
    code = 1
    try:
        gc.freeze()
        os.dup2(stderr, 2)
        announce = fcntl.fcntl(announce, fcntl.F_DUPFD, 3)  # clear of stdio
        devnull = os.open(os.devnull, os.O_RDWR)
        os.dup2(devnull, 0)
        os.dup2(devnull, 1)
        os.closerange(3, announce)
        os.closerange(announce + 1, os.sysconf("SC_OPEN_MAX"))
        shard = boot()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        os.write(announce, f"PORT {listener.getsockname()[1]}\n".encode())
        os.close(announce)
        serve(shard, listener)
        code = 0
    except BaseException:
        os.write(2, traceback.format_exc().encode(errors="replace"))
    finally:
        os._exit(code)
