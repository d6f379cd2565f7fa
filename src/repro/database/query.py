"""Query descriptions shared by every party in a protocol run.

A :class:`TopKQuery` is the public, agreed-upon object: which table and
attribute to query, how many values to select, and the publicly known data
domain (Section 2: "we assume all data values of the attribute belong to a
publicly known data domain").  Nothing in it is private.
"""

from __future__ import annotations

from dataclasses import dataclass


class QueryError(ValueError):
    """Raised for malformed queries or query/domain mismatches."""


@dataclass(frozen=True)
class Domain:
    """A publicly known, closed numeric domain ``[low, high]``.

    The protocol initialization module uses ``low`` as the identity element of
    the global max vector ("the lowest possible value in the corresponding
    data domain", Section 3.3).
    """

    low: float
    high: float
    integral: bool = True

    def __post_init__(self) -> None:
        if self.low >= self.high:
            raise QueryError(f"empty domain [{self.low}, {self.high}]")

    def __contains__(self, value: object) -> bool:
        return isinstance(value, (int, float)) and self.low <= value <= self.high

    def clamp(self, value: float) -> float:
        return min(max(value, self.low), self.high)


#: The domain used throughout the paper's evaluation (Section 5.1).
PAPER_DOMAIN = Domain(1, 10_000)


@dataclass(frozen=True)
class TopKQuery:
    """A top-k selection query over one attribute of one table.

    ``k == 1`` is the max query of Section 3.3; ``smallest=True`` turns it
    into a bottom-k/min query (used by the kNN extension, which selects the
    k smallest distances).
    """

    table: str
    attribute: str
    k: int
    domain: Domain = PAPER_DOMAIN
    smallest: bool = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise QueryError(f"k must be >= 1, got {self.k}")
        if not self.table or not self.attribute:
            raise QueryError("table and attribute must be non-empty")

    def identity_vector(self) -> list[float]:
        """The initial global vector: k copies of the domain's worst value."""
        worst = self.domain.high if self.smallest else self.domain.low
        return [worst] * self.k
