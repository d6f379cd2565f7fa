"""The SLO clause: declarative per-statement service objectives.

Extends the federation dialect (:mod:`repro.federation.sql`) with an
optional suffix::

    SELECT TOP 5 revenue FROM sales WITH SLO(epsilon=1e-4, max_lop=0.3)
    SELECT MAX(price) FROM lineitem WITH SLO(deadline=0.05, max_rounds=6)
    SELECT SUM(volume) FROM trades WITH SLO(deadline=1.0)

Supported keys (all optional; a bare statement means "no objectives"):

``epsilon``
    Target error bound of Equation 3/4: the protocol must reach precision
    ``>= 1 - epsilon``.  In ``(0, 1)``; defaults to the paper's ``1e-3``.
``precision``
    Sugar for ``epsilon = 1 - precision``; mutually exclusive with it.
``max_lop``
    Privacy budget: the Equation 6 *expected* loss-of-privacy bound of the
    chosen parameters must not exceed this.  In ``(0, 1]``.
``deadline``
    Latency budget in simulated seconds for the protocol run itself
    (queueing is the gateway's concern, not the plan's).
``max_rounds``
    Round budget (Equation 4 output must fit).
``protocol``
    Force ``probabilistic`` or ``naive`` instead of letting the planner
    choose.
``dp_epsilon``
    Differential-privacy budget for this statement's *release*: the
    answer is perturbed by a mechanism calibrated to ``dp_epsilon``
    (see :mod:`repro.privacy.dp`).  Finite and ``> 0``.  Distinct from
    ``epsilon``, which remains the Equation 3/4 precision bound.
``dp_delta``
    The ``delta`` of an (epsilon, delta) differential-privacy budget.
    In ``[0, 1)``; requires ``dp_epsilon``; omitted means ``0`` (pure
    epsilon-DP).

The clause is parsed *with* the statement: :func:`parse_spec` accepts any
dialect statement with or without a suffix and returns a
:class:`QuerySpec` — the parsed statement plus its :class:`Slo`.  Errors
raise :class:`SloError`, a subclass of the dialect's ``SqlError``, so
every existing refusal path classifies them correctly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from functools import lru_cache

from ..federation.cache import canonical_statement
from ..federation.sql import FederatedStatement, SqlError, parse

#: The suffix shape: ``<statement> WITH SLO(key=value, ...)``.
_SLO_RE = re.compile(
    r"^(?P<body>.+?)\s+WITH\s+SLO\s*\(\s*(?P<clauses>[^)]*)\)\s*;?\s*$",
    re.IGNORECASE,
)
_CLAUSE_RE = re.compile(r"^\s*(?P<key>[A-Za-z_]+)\s*=\s*(?P<value>[^\s,]+)\s*$")

PROTOCOL_CHOICES = ("probabilistic", "naive")


class SloError(SqlError):
    """Raised for malformed or contradictory SLO clauses."""


@dataclass(frozen=True)
class Slo:
    """Declared objectives for one statement; ``None`` means unconstrained.

    ``is_trivial`` -- true when no objective is declared (a bare dialect
    statement) -- is derived once, here, for every stage that asks it;
    equality, hashing, ``repr``, pickling and ``replace`` ignore it.
    """

    epsilon: float | None = None
    max_lop: float | None = None
    deadline: float | None = None
    max_rounds: int | None = None
    protocol: str | None = None
    dp_epsilon: float | None = None
    dp_delta: float | None = None
    is_trivial: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.epsilon is not None and not 0.0 < self.epsilon < 1.0:
            raise SloError(f"SLO epsilon must be in (0, 1), got {self.epsilon}")
        if self.max_lop is not None and not 0.0 < self.max_lop <= 1.0:
            raise SloError(f"SLO max_lop must be in (0, 1], got {self.max_lop}")
        if self.deadline is not None and self.deadline <= 0.0:
            raise SloError(f"SLO deadline must be positive, got {self.deadline}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise SloError(f"SLO max_rounds must be >= 1, got {self.max_rounds}")
        if self.protocol is not None and self.protocol not in PROTOCOL_CHOICES:
            raise SloError(
                f"SLO protocol must be one of {PROTOCOL_CHOICES}, "
                f"got {self.protocol!r}"
            )
        if self.dp_epsilon is not None and not (
            math.isfinite(self.dp_epsilon) and self.dp_epsilon > 0.0
        ):
            raise SloError(
                f"SLO dp_epsilon must be finite and > 0, got {self.dp_epsilon}"
            )
        if self.dp_delta is not None:
            if self.dp_epsilon is None:
                raise SloError("SLO dp_delta requires dp_epsilon")
            if not 0.0 <= self.dp_delta < 1.0:
                raise SloError(
                    f"SLO dp_delta must be in [0, 1), got {self.dp_delta}"
                )
        trivial = all(getattr(self, name) is None for name in _OBJECTIVES)
        object.__setattr__(self, "is_trivial", trivial)

    def __reduce__(self) -> tuple:
        return Slo, tuple([getattr(self, name) for name in _OBJECTIVES])

    @property
    def has_dp(self) -> bool:
        """True when the statement requests a differentially-private release."""
        return self.dp_epsilon is not None

    def describe(self) -> str:
        """Canonical one-line rendering (deterministic; used by explain)."""
        parts = [
            f"{name}={getattr(self, name)}"
            for name in _OBJECTIVES
            if getattr(self, name) is not None
        ]
        return ", ".join(parts) if parts else "(none)"


#: The objectives an :class:`Slo` declares, in field order (``is_trivial``
#: is derived from them, not declared).
_OBJECTIVES = tuple(f.name for f in fields(Slo) if f.init)


@dataclass(frozen=True)
class QuerySpec:
    """A parsed statement plus its SLO.

    ``statement.text`` is the *bare* dialect statement (the cache and audit
    canonical form); ``text`` preserves the full submitted text including
    the SLO clause.
    """

    statement: FederatedStatement
    slo: Slo
    text: str


#: Every key the clause accepts: the objectives themselves, plus the
#: ``precision`` spelling of ``epsilon``.
_SLO_KEYS = frozenset(_OBJECTIVES) | {"precision"}


def _parse_value(key: str, raw: str) -> object:
    if key == "max_rounds":
        try:
            return int(raw)
        except ValueError:
            raise SloError(f"SLO {key} expects an integer, got {raw!r}") from None
    if key in ("epsilon", "precision", "max_lop", "deadline", "dp_epsilon", "dp_delta"):
        try:
            return float(raw)
        except ValueError:
            raise SloError(f"SLO {key} expects a number, got {raw!r}") from None
    return raw.lower()


def parse_slo_clauses(clauses: str) -> Slo:
    """Parse the inside of ``SLO(...)`` into an :class:`Slo`."""
    values: dict[str, object] = {}
    stripped = clauses.strip()
    parts = [p for p in stripped.split(",")] if stripped else []
    for part in parts:
        match = _CLAUSE_RE.match(part)
        if not match:
            raise SloError(
                f"malformed SLO clause {part.strip()!r}; expected key=value"
            )
        key = match.group("key").lower()
        if key not in _SLO_KEYS:
            raise SloError(f"unknown SLO key {key!r}")
        if key in values or (key == "precision" and "epsilon" in values) or (
            key == "epsilon" and "precision" in values
        ):
            raise SloError(f"duplicate or conflicting SLO key {key!r}")
        values[key] = _parse_value(key, match.group("value"))
    precision = values.pop("precision", None)
    if precision is not None:
        if not 0.0 < float(precision) < 1.0:  # type: ignore[arg-type]
            raise SloError(f"SLO precision must be in (0, 1), got {precision}")
        values["epsilon"] = 1.0 - float(precision)  # type: ignore[arg-type]
    return Slo(**values)  # type: ignore[arg-type]


def parse_spec(text: str) -> QuerySpec:
    """Parse a dialect statement with an optional ``WITH SLO(...)`` suffix."""
    if not text or not text.strip():
        raise SqlError("empty statement")
    match = _SLO_RE.match(text)
    if match:
        statement = parse(match.group("body"))
        slo = parse_slo_clauses(match.group("clauses"))
        return QuerySpec(statement=statement, slo=slo, text=text.strip())
    return QuerySpec(statement=parse(text), slo=Slo(), text=text.strip())


@dataclass(frozen=True, slots=True)
class Prepared:
    """Everything about a statement that is a pure function of its text.

    Compiled once per process by :func:`prepare` and consumed by every stage
    a statement crosses (gateway, cache fast path, batch, DP expansion, shard
    routing), so none of them parses the text again.
    """

    spec: QuerySpec
    #: :func:`~repro.federation.cache.canonical_statement` of the statement:
    #: the ``(operation, k, attribute, table)`` every spelling shares.
    canonical: tuple
    #: ``spec.slo.is_trivial`` / ``spec.slo.has_dp``, evaluated once.
    trivial: bool
    has_dp: bool


#: Most distinct statement texts whose prepared form one process keeps (least
#: recently used goes first; 0.4-0.9 KB each).  The result cache's default
#: bound: a form that outlives its cached answer saves one compilation, in
#: microseconds, on a re-execution that costs milliseconds.
PREPARED_ENTRIES = 1024


@lru_cache(maxsize=PREPARED_ENTRIES)
def prepare(text: str) -> Prepared:
    """The prepared form of ``text``: :func:`parse_spec` at most once per text.

    Memoised per process and keyed by the submitted text, because a
    statement crosses several objects (gateway, router, shard federations,
    the DP path) that would each compile it again from a memo of their own.
    A text that fails to parse raises its typed error on every call and is
    never stored.  Reaches :func:`parse_spec` through the module global, so
    a counter or span recorder patched over it sees every compilation.
    """
    spec = parse_spec(text)
    return Prepared(
        spec=spec,
        canonical=canonical_statement(spec.statement),
        trivial=spec.slo.is_trivial,
        has_dp=spec.slo.has_dp,
    )


def prepared_clear() -> None:
    """Drop every prepared form (tests and cold-state measurements)."""
    prepare.cache_clear()


#: SLO keys owned by the differential-privacy layer, not the planner.
DP_SLO_KEYS = ("dp_epsilon", "dp_delta")


def strip_dp(spec: QuerySpec) -> str:
    """Rebuild ``spec``'s text with the DP keys removed.

    The DP layer perturbs the answer of an *inner* statement that carries
    every remaining objective (precision, deadline, protocol, ...); this
    returns that inner statement's canonical text.  A spec whose SLO holds
    nothing but DP keys collapses to the bare dialect statement.
    """
    kept = [
        (name, getattr(spec.slo, name))
        for name in _OBJECTIVES
        if name not in DP_SLO_KEYS and getattr(spec.slo, name) is not None
    ]
    if not kept:
        return spec.statement.text
    clauses = ", ".join(f"{name}={value}" for name, value in kept)
    return f"{spec.statement.text} WITH SLO({clauses})"


__all__ = [
    "DP_SLO_KEYS",
    "PREPARED_ENTRIES",
    "PROTOCOL_CHOICES",
    "Prepared",
    "QuerySpec",
    "Slo",
    "SloError",
    "parse_slo_clauses",
    "parse_spec",
    "prepare",
    "prepared_clear",
    "strip_dp",
]
