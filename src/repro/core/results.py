"""Results of a protocol run, with everything the evaluation needs attached.

A :class:`ProtocolResult` carries the public outcome (the final top-k
vector), the run's bookkeeping (ring order, starter, per-round global
snapshots, traffic stats) and — for *evaluation only* — the ground-truth
local vectors.  In a real deployment the ground truth never leaves the nodes;
here it feeds the precision metric and the loss-of-privacy estimators, which
need an omniscient view to score what an adversary could have inferred.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..database.query import TopKQuery
from ..network.events import EventLog
from ..network.stats import TrafficStats
from .vectors import merge_topk, multiset_intersection_size


@dataclass
class ProtocolResult:
    """Outcome and full trace of one protocol run."""

    query: TopKQuery
    protocol: str
    final_vector: list[float]
    ring_order: tuple[str, ...]
    starter: str
    #: Ground-truth local top-k vector per node (evaluation only).
    local_vectors: dict[str, list[float]]
    #: End-of-round global vectors, ``round -> g(r)``, as received back by
    #: the starting node.
    round_snapshots: dict[int, list[float]] = field(default_factory=dict)
    event_log: EventLog = field(default_factory=EventLog)
    stats: TrafficStats = field(default_factory=TrafficStats)
    #: Ring order per round when per-round remapping is on (round -> order).
    ring_history: dict[int, tuple[str, ...]] = field(default_factory=dict)
    simulated_seconds: float = 0.0
    #: True when the run operated on negated values (min/bottom-k queries).
    #: All trace fields (vectors, snapshots, event log) — and ``query``
    #: itself — are in the internal, negated representation;
    #: :meth:`answer` converts back and ``original_query`` is the query as
    #: the caller posed it.
    negated: bool = False
    original_query: TopKQuery | None = None
    #: The randomization schedule the run used.  It is public protocol
    #: metadata (every party must know it), which is why adversary models
    #: may read it when computing posteriors.
    schedule: object | None = None
    #: Memo of :func:`repro.privacy.lop.exposure_profile`.  A result is
    #: never mutated after its run, so the profile is built once, on first
    #: read; it takes no part in equality and does not travel with pickles.
    _exposure: object | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_exposure": None}

    @property
    def n_nodes(self) -> int:
        return len(self.ring_order)

    @property
    def rounds_executed(self) -> int:
        return max(self.round_snapshots, default=0)

    def true_topk(self) -> list[float]:
        """Ground-truth global top-k over all participating local vectors."""
        result: list[float] = []
        for values in self.local_vectors.values():
            result = merge_topk(result, values, self.query.k)
        if len(result) < self.query.k:
            fill = self.query.domain.low
            result = result + [fill] * (self.query.k - len(result))
        return result

    def precision(self) -> float:
        """The paper's metric (Section 5.4): ``|R ∩ TopK| / k``."""
        truth = self.true_topk()
        hits = multiset_intersection_size(self.final_vector, truth)
        return hits / self.query.k

    def answer(self) -> list[float]:
        """The user-facing result.

        For plain top-k queries this is ``final_vector`` (descending).  For
        min/bottom-k queries the protocol ran on negated values; the answer
        is negated back and sorted ascending.
        """
        if not self.negated:
            return list(self.final_vector)
        return sorted(-v for v in self.final_vector)

    def precision_at_round(self, round_number: int) -> float:
        """Precision of the global vector at the end of ``round_number``.

        Rounds beyond the last executed one hold the final value (the vector
        no longer changes once the protocol has converged and terminated);
        rounds before the first snapshot score against the identity vector.
        """
        if not self.round_snapshots:
            raise ValueError("run recorded no round snapshots")
        eligible = [r for r in self.round_snapshots if r <= round_number]
        if not eligible:
            vector = self.query.identity_vector()
        else:
            vector = self.round_snapshots[max(eligible)]
        truth = self.true_topk()
        return multiset_intersection_size(vector, truth) / self.query.k

