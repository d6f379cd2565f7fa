"""A small SQL-ish dialect for federated statistics queries.

The paper frames the problem as "statistics queries over multiple private
databases".  This module gives the federation a familiar query surface for
exactly the statistics this library can answer privately:

    SELECT TOP 5 revenue FROM sales
    SELECT BOTTOM 3 latency FROM probes
    SELECT MAX(revenue) FROM sales
    SELECT MIN(revenue) FROM sales
    SELECT SUM(revenue) FROM sales
    SELECT COUNT(revenue) FROM sales
    SELECT AVG(revenue) FROM sales

Nothing more: no joins, no predicates — those would require the intersection
/ equijoin protocols of Agrawal et al. (related work), which are out of this
paper's scope.  The parser is deliberately strict and gives actionable
errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: Statement shapes, compiled once.
_TOP_RE = re.compile(
    r"^\s*SELECT\s+(TOP|BOTTOM)\s+(\d+)\s+(\w+)\s+FROM\s+(\w+)\s*;?\s*$",
    re.IGNORECASE,
)
_AGG_RE = re.compile(
    r"^\s*SELECT\s+(MAX|MIN|SUM|COUNT|AVG)\s*\(\s*(\w+)\s*\)\s+FROM\s+(\w+)\s*;?\s*$",
    re.IGNORECASE,
)

#: Aggregates answered by the ranking protocol vs. the secure-sum protocol.
RANKING_AGGREGATES = ("TOP", "BOTTOM", "MAX", "MIN")
ADDITIVE_AGGREGATES = ("SUM", "COUNT", "AVG")


class SqlError(ValueError):
    """Raised for statements outside the supported dialect."""


@dataclass(frozen=True)
class FederatedStatement:
    """A parsed statement: operation, k, attribute, table."""

    operation: str  # TOP | BOTTOM | MAX | MIN | SUM | COUNT | AVG
    k: int
    attribute: str
    table: str
    text: str

    @property
    def is_ranking(self) -> bool:
        return self.operation in RANKING_AGGREGATES

    @property
    def smallest(self) -> bool:
        return self.operation in ("BOTTOM", "MIN")


def parse(statement: str) -> FederatedStatement:
    """Parse one statement of the dialect; raise :class:`SqlError` otherwise."""
    if not statement or not statement.strip():
        raise SqlError("empty statement")
    match = _TOP_RE.match(statement)
    if match:
        direction, k_text, attribute, table = match.groups()
        k = int(k_text)
        if k < 1:
            raise SqlError(f"{direction.upper()} needs k >= 1, got {k}")
        return FederatedStatement(
            operation=direction.upper(),
            k=k,
            attribute=attribute,
            table=table,
            text=statement.strip(),
        )
    match = _AGG_RE.match(statement)
    if match:
        func, attribute, table = match.groups()
        return FederatedStatement(
            operation=func.upper(),
            k=1,
            attribute=attribute,
            table=table,
            text=statement.strip(),
        )
    raise SqlError(
        f"unsupported statement: {statement!r}; the dialect supports "
        "SELECT TOP/BOTTOM <k> <attr> FROM <table> and "
        "SELECT MAX|MIN|SUM|COUNT|AVG(<attr>) FROM <table>"
    )
