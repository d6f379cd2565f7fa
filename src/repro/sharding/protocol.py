"""JSON codec for the shard worker wire protocol.

Process shards speak framed JSON over TCP, reusing the deployment layer's
length-prefixed framing (:mod:`repro.deploy.wire`) so every substrate in
this codebase shares one frame format.  This module is the pure codec half:
request/response encoding, and the mapping between typed refusal exceptions
and their wire names, shared by the worker (:mod:`repro.sharding.worker`)
and the client (:class:`repro.sharding.shards.ProcessShard`) so a refusal
raised inside a worker process re-materializes as the *same type* in the
gateway — the degradation contract is typed end to end.

An outcome crosses the boundary whole: it is the public answer (values,
protocol, rounds, messages, simulated seconds, the cached flag) plus the
executed ring's ``average_lop``, and it carries no protocol transcript on
either side of the wire, so a routed outcome equals the flat federation's
field for field.

The decoders read bytes another process wrote, so every way a value can
have the wrong shape — not JSON, not an object, a missing key, a number
where a list belongs — raises :class:`~repro.deploy.wire.WireError`, the
one failure :class:`~repro.sharding.shards.ProcessShard` turns into
:class:`~repro.sharding.errors.ShardUnavailable`.
"""

from __future__ import annotations

import json
import socket
from collections.abc import Iterator
from contextlib import contextmanager

from ..deploy.wire import WireError, recv_frame, send_frame
from ..federation.cache import CachedAnswer
from ..federation.coordinator import QueryOutcome, QueryRefused
from ..federation.policy import PolicyViolation
from ..federation.sql import SqlError
from ..planner.errors import PlanInfeasible
from ..planner.spec import SloError
from ..privacy.accounting import BudgetExceededError
from .errors import (
    ShardError,
    ShardUnavailable,
    TenantBudgetExceeded,
    TenantRateLimited,
)

#: Typed refusals that cross the wire by name.  Anything not listed decodes
#: as a plain :class:`ShardError` carrying the original type in its message
#: (never silently swallowed, never un-typed into a bare Exception).
_ERROR_TYPES: dict[str, type[Exception]] = {
    "SqlError": SqlError,
    "SloError": SloError,
    "PolicyViolation": PolicyViolation,
    "BudgetExceededError": BudgetExceededError,
    "PlanInfeasible": PlanInfeasible,
    "ShardError": ShardError,
    "ShardUnavailable": ShardUnavailable,
    "TenantRateLimited": TenantRateLimited,
    "TenantBudgetExceeded": TenantBudgetExceeded,
}


def encode_error(error: Exception) -> dict:
    name = type(error).__name__
    if name not in _ERROR_TYPES:
        return {"error": "ShardError", "message": f"{name}: {error}"}
    return {"error": name, "message": str(error)}


def decode_error(payload: dict) -> Exception:
    cls = _ERROR_TYPES.get(str(payload.get("error")), ShardError)
    return cls(str(payload.get("message", "shard error")))


def _expect(value: object, kind: type, what: str) -> None:
    if not isinstance(value, kind):
        raise WireError(
            f"malformed {what}: expected {kind.__name__}, got {type(value).__name__}"
        )


@contextmanager
def well_formed(what: str) -> Iterator[None]:
    """Turn the coercion failures of a mis-shaped value into ``WireError``."""
    try:
        yield
    except (
        ArithmeticError,  # int(inf): JSON admits Infinity
        AttributeError,
        LookupError,
        RecursionError,  # json.loads on deeply nested brackets
        TypeError,
        ValueError,
    ) as exc:
        raise WireError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc


def encode_outcome(outcome: QueryOutcome) -> dict:
    return {
        "statement": outcome.statement,
        "values": list(outcome.values),
        "protocol": outcome.protocol,
        "rounds": outcome.rounds,
        "messages": outcome.messages,
        "cached": outcome.cached,
        "simulated_seconds": outcome.simulated_seconds,
        "average_lop": outcome.average_lop,
    }


def decode_outcome(payload: dict) -> QueryOutcome:
    with well_formed("outcome"):
        _expect(payload["values"], list, "outcome values")
        return QueryOutcome(
            statement=str(payload["statement"]),
            values=tuple(float(v) for v in payload["values"]),
            protocol=str(payload["protocol"]),
            rounds=int(payload["rounds"]),
            messages=int(payload["messages"]),
            cached=bool(payload["cached"]),
            simulated_seconds=float(payload["simulated_seconds"]),
            average_lop=_lop(payload["average_lop"]),
        )


def _lop(value: object) -> float | None:
    """An outcome's ``average_lop``: ``None`` or a number in [0, 1]."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"average_lop {value!r} is not a number")
    if not 0 <= value <= 1:
        raise ValueError(f"average_lop {value!r} is not in [0, 1]")
    return float(value)


def decode_answer(payload: "dict | None") -> CachedAnswer | None:
    """A ``peek`` reply's cached answer; ``None`` is a miss."""
    if payload is None:
        return None
    with well_formed("answer"):
        _expect(payload["values"], list, "answer values")
        return CachedAnswer(
            values=tuple(float(v) for v in payload["values"]),
            protocol=str(payload["protocol"]),
        )


def encode_settled(results: "list[QueryOutcome | QueryRefused]") -> list[dict]:
    encoded = []
    for result in results:
        if isinstance(result, QueryRefused):
            entry = {"ok": False, "statement": result.statement}
            entry.update(encode_error(result.error))
            encoded.append(entry)
        else:
            encoded.append({"ok": True, "outcome": encode_outcome(result)})
    return encoded


def decode_settled(payload: list) -> "list[QueryOutcome | QueryRefused]":
    results: "list[QueryOutcome | QueryRefused]" = []
    _expect(payload, list, "settled batch")
    with well_formed("settled batch"):
        for entry in payload:
            if entry.get("ok"):
                results.append(decode_outcome(entry["outcome"]))
            else:
                results.append(
                    QueryRefused(
                        statement=str(entry.get("statement", "")),
                        error=decode_error(entry),
                    )
                )
    return results


def send_json(sock: socket.socket, payload: dict) -> None:
    send_frame(sock, json.dumps(payload, sort_keys=True).encode())


def recv_json(sock: socket.socket) -> dict:
    """One framed JSON object; anything else on the wire is a ``WireError``."""
    frame = recv_frame(sock)
    with well_formed("frame"):
        message = json.loads(frame.decode())
    _expect(message, dict, "frame")
    return message


__all__ = [
    "decode_answer",
    "decode_error",
    "decode_outcome",
    "decode_settled",
    "encode_error",
    "encode_outcome",
    "encode_settled",
    "recv_json",
    "send_json",
    "well_formed",
]
