"""Privacy-preserving k-nearest-neighbour classification (Section 7).

The paper's stated future work: "we are developing a privacy preserving kNN
classifier on top of the topk protocol."  This extension realizes it with
the two primitives this library already provides:

1. **global k smallest distances** — each party computes distances from its
   private labelled points to the query point and the parties run the
   *bottom-k* variant of the probabilistic protocol over them (top-k on
   negated distances), so nobody reveals distances beyond what the protocol
   leaks;
2. **private vote tally** — each party counts how many of its own points
   realized one of those k global nearest distances, per class label, and
   the per-label counts are aggregated with the additive-masking secure sum.

The prediction is the label with the largest private tally.

**Vote contract.**  A vote is cast only for a neighbour distance some party
actually holds.  The probabilistic protocol may, with the residual
probability of Eq. 3, return randomised values no party holds; those cast no
vote, so ``sum(votes) <= k`` in general and ``sum(votes) == k`` whenever the
protocol is exact (``p0 = 0``, the naive reduction, or enough rounds).  The
one exception: when two *parties* hold exactly the same returned distance,
each counts its own point (neither can see the other's), which yields extra
votes — the documented behaviour of threshold-based kNN; it affects neither
party's data exposure.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

from ..core.driver import RunConfig, run_protocol_on_vectors
from ..core.params import ProtocolParams
from ..database.query import Domain, TopKQuery
from .securesum import run_secure_sum


class KNNError(ValueError):
    """Raised for malformed training data or queries."""


@dataclass(frozen=True)
class LabeledPoint:
    """One training example: a feature vector and a class label."""

    features: tuple[float, ...]
    label: str

    def __post_init__(self) -> None:
        if not self.features:
            raise KNNError("features must be non-empty")
        if not self.label:
            raise KNNError("label must be non-empty")


def euclidean(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    if len(a) != len(b):
        raise KNNError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


@dataclass
class PrivateParty:
    """One organization's private labelled dataset."""

    name: str
    points: list[LabeledPoint] = field(default_factory=list)

    def add(self, features: tuple[float, ...], label: str) -> None:
        self.points.append(LabeledPoint(tuple(features), label))

    def distances_to(self, query: tuple[float, ...]) -> list[float]:
        return [euclidean(p.features, query) for p in self.points]

    def labels(self) -> set[str]:
        return {p.label for p in self.points}


@dataclass
class KNNPrediction:
    """Classification outcome plus the protocol artifacts behind it."""

    label: str
    #: Per-label tally; sums to at most k (see the module's vote contract).
    votes: dict[str, int]
    #: The k returned distances, ascending — residual randomised values
    #: included, though they cast no vote.
    neighbour_distances: list[float]
    messages_total: int


class PrivateKNNClassifier:
    """kNN across private parties via the top-k protocol plus secure sums."""

    def __init__(
        self,
        parties: list[PrivateParty],
        *,
        k: int = 5,
        params: ProtocolParams | None = None,
        seed: int | None = None,
    ) -> None:
        if len(parties) < 3:
            raise KNNError(f"the protocol requires n >= 3 parties, got {len(parties)}")
        if k < 1:
            raise KNNError(f"k must be >= 1, got {k}")
        names = [p.name for p in parties]
        if len(set(names)) != len(names):
            raise KNNError(f"duplicate party names: {names}")
        if any(not p.points for p in parties):
            empty = [p.name for p in parties if not p.points]
            raise KNNError(f"parties with no training points: {empty}")
        self.parties = parties
        self.k = k
        self.params = params or ProtocolParams.paper_defaults()
        self._rng = random.Random(seed)

    def _distance_domain(self, query: tuple[float, ...]) -> Domain:
        """A public bound on distances.

        Deployments derive this from the (public) feature-domain bounds; the
        simulation computes a loose upper bound the same way: the diameter
        implied by the widest coordinate spread across all parties' data is
        private, so instead we bound by the largest observed distance, then
        round up — values in (0, bound] stay in-domain.
        """
        largest = max(
            max(party.distances_to(query)) for party in self.parties
        )
        bound = max(1.0, largest * 2.0)
        return Domain(0.0, bound, integral=False)

    def classify(self, query: tuple[float, ...]) -> KNNPrediction:
        """Predict the label of ``query`` without pooling any party's data."""
        domain = self._distance_domain(query)
        local_distances = {
            party.name: party.distances_to(query) for party in self.parties
        }
        topk_query = TopKQuery(
            table="knn", attribute="distance", k=self.k, domain=domain, smallest=True
        )
        config = RunConfig(
            params=self.params, seed=self._rng.getrandbits(32)
        )
        result = run_protocol_on_vectors(local_distances, topk_query, config)
        neighbour_distances = result.answer()
        messages = result.stats.messages_total

        votes = self._tally_votes(query, neighbour_distances)
        messages += int(votes.pop("__messages__"))
        if not votes:
            raise KNNError("no votes tallied; is the training data empty?")
        # Deterministic tie-break: largest count, then lexicographic label.
        label = min(votes, key=lambda lab: (-votes[lab], lab))
        return KNNPrediction(
            label=label,
            votes={k: int(v) for k, v in votes.items()},
            neighbour_distances=neighbour_distances,
            messages_total=messages,
        )

    def _tally_votes(
        self, query: tuple[float, ...], neighbour_distances: list[float]
    ) -> dict[str, float]:
        """Secure-sum the per-label votes; ``__messages__`` carries traffic."""
        labels = sorted(set().union(*(p.labels() for p in self.parties)))
        budget = Counter(neighbour_distances)
        messages = 0
        votes: dict[str, float] = {}
        for label in labels:
            per_party = {}
            for party in self.parties:
                remaining = Counter(budget)
                count = 0
                for point, dist in zip(party.points, party.distances_to(query)):
                    if point.label == label and remaining[dist] > 0:
                        remaining[dist] -= 1
                        count += 1
                per_party[party.name] = float(count)
            outcome = run_secure_sum(per_party, seed=self._rng.getrandbits(32))
            votes[label] = round(outcome.total)
            messages += outcome.stats.messages_total
        votes["__messages__"] = float(messages)
        return votes
