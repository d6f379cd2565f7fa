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

A reply answers its request entry by entry, and the gateway decodes each
entry against the text it sent: an outcome's ``statement`` (and a
refusal's) is the gateway's own text object, a reply naming another
statement is refused, and ``protocol`` is one canonical object per name from
the closed set the federations produce.  A decoded outcome then shares
nothing with the JSON it came from but its numbers.

A request's plans cross as the two fields the executor reads (protocol and
ring parameters), so a worker runs a statement on the gateway's plan.

The decoders read bytes another process wrote, so every way a value can
have the wrong shape — not JSON, not an object, a missing key, a number
where a list belongs — raises :class:`~repro.deploy.wire.WireError`, the
one failure :class:`~repro.sharding.shards.ProcessShard` turns into
:class:`~repro.sharding.errors.ShardUnavailable`.
"""

from __future__ import annotations

import json
import socket
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

from ..core.noise import UniformNoise
from ..core.params import ProtocolParams
from ..core.schedule import ExponentialSchedule
from ..core.session import PROTOCOLS
from ..database.schema import SchemaError
from ..deploy.wire import WireError, recv_frame, send_frame
from ..federation.cache import CachedAnswer
from ..federation.coordinator import SECURE_SUM_PROTOCOLS, QueryOutcome, QueryRefused
from ..federation.dp_release import DP_SUFFIX
from ..federation.outcomes import FederationError, SharedOutcomes
from ..federation.sql import SqlError
from ..planner.errors import PlanInfeasible
from ..planner.plan import Plan
from ..planner.spec import SloError, prepare
from ..privacy.dp import BudgetExhausted
from .errors import ShardError, ShardUnavailable, TenantRateLimited

#: Typed refusals that cross the wire by name.  Anything not listed decodes
#: as a plain :class:`ShardError` carrying the original type in its message
#: (never silently swallowed, never un-typed into a bare Exception).
_ERROR_TYPES: dict[str, type[Exception]] = {
    "SqlError": SqlError,
    "SloError": SloError,
    "SchemaError": SchemaError,
    "FederationError": FederationError,
    "BudgetExhausted": BudgetExhausted,
    "PlanInfeasible": PlanInfeasible,
    "ShardError": ShardError,
    "ShardUnavailable": ShardUnavailable,
    "TenantRateLimited": TenantRateLimited,
}


#: Every protocol name an outcome can carry, each mapped to its one
#: canonical object: the ring protocols and the secure sums, bare or released
#: under DP.
_PROTOCOL_NAMES: dict[str, str] = {
    name: name
    for base in (*PROTOCOLS, *SECURE_SUM_PROTOCOLS)
    for name in (base, base + DP_SUFFIX)
}


def encode_error(error: Exception) -> dict:
    name = type(error).__name__
    if name not in _ERROR_TYPES:
        return {"error": "ShardError", "message": f"{name}: {error}"}
    payload = {"error": name, "message": str(error)}
    if isinstance(error, BudgetExhausted):
        payload["dimension"] = error.dimension
    return payload


def decode_error(payload: dict) -> Exception:
    cls = _ERROR_TYPES.get(str(payload.get("error")), ShardError)
    error = cls(str(payload.get("message", "shard error")))
    if isinstance(error, BudgetExhausted):
        error.dimension = str(payload.get("dimension", error.dimension))
    return error


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


def decode_outcome(
    payload: dict,
    statement: "str | None" = None,
    hits: "SharedOutcomes | None" = None,
) -> QueryOutcome:
    """The outcome ``payload`` encodes, as the answer to ``statement``.

    ``statement`` is the text the request entry sent; the outcome names that
    text's bare statement and holds the gateway's own object for it: the
    sent text itself when it carries no SLO.  A reply naming any other
    statement is a ``WireError``.  Without ``statement`` the reply's own
    name is taken as it stands.  A hit is shared per sent text through
    ``hits`` (:meth:`SharedOutcomes.decode`): a repeat builds nothing.
    """
    with well_formed("outcome"):
        _expect(payload["values"], list, "outcome values")
        named = str(payload["statement"])
        if statement is not None:
            sent = (
                statement
                if named == statement
                else prepare(statement).spec.statement.text
            )
            if named != sent:
                raise WireError(f"outcome for {named!r} answers {sent!r}")
            named = sent
        # ``QueryOutcome``'s fields in order (``trace`` never crosses).
        fields = (
            named, tuple(map(float, payload["values"])), _protocol(payload["protocol"]),
            int(payload["rounds"]), int(payload["messages"]), None,
            bool(payload["cached"]), float(payload["simulated_seconds"]),
            _lop(payload["average_lop"]),
        )
    if hits is not None and fields[6]:
        return hits.decode(statement, fields)
    return QueryOutcome(*fields)


def _protocol(name: object) -> str:
    """The canonical object for a protocol name; an unknown one is refused."""
    canonical = _PROTOCOL_NAMES.get(name) if isinstance(name, str) else None
    if canonical is None:
        raise WireError(f"unknown protocol {name!r:.80}")
    return canonical


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
            protocol=_protocol(payload["protocol"]),
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


def decode_settled(
    payload: list,
    statements: "Sequence[str] | None" = None,
    hits: "SharedOutcomes | None" = None,
) -> "list[QueryOutcome | QueryRefused]":
    """A settled batch; with ``statements``, the one entry answering each.

    Given the request's texts, the reply must hold exactly one entry per
    text, in order, each naming its text (see :func:`decode_outcome`, which
    shares hits through ``hits``); a refusal's ``statement`` is then the
    sent text object.
    """
    _expect(payload, list, "settled batch")
    if statements is not None and len(payload) != len(statements):
        raise WireError(f"{len(payload)} results for {len(statements)} statements")
    results: "list[QueryOutcome | QueryRefused]" = []
    with well_formed("settled batch"):
        for index, entry in enumerate(payload):
            sent = None if statements is None else statements[index]
            if entry.get("ok"):
                results.append(decode_outcome(entry["outcome"], sent, hits))
                continue
            named = str(entry.get("statement", ""))
            if sent is not None:
                if named != sent:
                    raise WireError(f"refusal of {named!r} answers {sent!r}")
                named = sent
            results.append(QueryRefused(statement=named, error=decode_error(entry)))
    return results


@dataclass(frozen=True)
class WirePlan:
    """A plan as a worker runs it: the two fields the executor reads."""

    protocol: str
    params: ProtocolParams | None


#: The ring parameters a plan carries besides its exponential schedule.
_PARAM_FIELDS = ("rounds", "epsilon", "delta", "remap_each_round", "insert_once")


def encode_plan(plan: "Plan | WirePlan | None") -> "dict | None":
    """The fields of ``plan`` a worker's executor reads, or ``None``.

    Ring parameters cross as the planner writes them: an exponential
    schedule under the default noise; any other is a ``ValueError`` (it
    would run as something else on the far side).
    """
    if plan is None:
        return None
    params = plan.params
    wire: dict = {"protocol": plan.protocol, "params": None}
    if params is not None:
        schedule = params.schedule
        if not isinstance(schedule, ExponentialSchedule) or params.noise != UniformNoise():
            raise ValueError(
                f"a plan over {type(schedule).__name__} / {type(params.noise).__name__} "
                "cannot cross the shard wire"
            )
        wire["params"] = {
            "p0": schedule.p0,
            "d": schedule.d,
            **{name: getattr(params, name) for name in _PARAM_FIELDS},
        }
    return wire


def decode_plan(payload: "dict | None") -> WirePlan | None:
    """The plan :func:`encode_plan` wrote (read in the worker)."""
    if payload is None:
        return None
    fields = payload["params"]
    params = None
    if fields is not None:
        params = ProtocolParams(
            schedule=ExponentialSchedule(p0=fields["p0"], d=fields["d"]),
            **{name: fields[name] for name in _PARAM_FIELDS},
        )
    return WirePlan(protocol=payload["protocol"], params=params)


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
    "WirePlan",
    "decode_answer",
    "decode_error",
    "decode_outcome",
    "decode_plan",
    "decode_settled",
    "encode_error",
    "encode_outcome",
    "encode_plan",
    "encode_settled",
    "recv_json",
    "send_json",
    "well_formed",
]
