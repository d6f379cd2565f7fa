"""The Loss-of-Privacy (LoP) metric and its empirical estimator.

Equation 1: ``LoP = P(C | R, IR) − P(C | R)`` for a claim ``C`` about a
node's value, where ``R`` is the public final result and ``IR`` the
intermediate results the adversary observed.

The empirical estimator (derivation in DESIGN.md §4) scores, per trial, the
claim an adversary can actually make: the successor of node *i* observes the
vector ``G_i(r)`` and claims node *i* holds (one of) its values.

* If the claimed value appears in the final result ``R``, the paper's
  convention applies: every node is equally likely to hold a final-result
  value (``P(C|R) = 1/n``) and observing it mid-protocol proves nothing
  more, so the contribution is **0**.
* Otherwise ``P(C|R) ≈ 0`` (the public domain is large), and the indicator
  *"the claim is true"* — i.e. the observed vector really contains the
  node's value — averaged over trials estimates ``P(C | R, IR)``.

A node's per-round LoP averages over the data items it participates with
(its local top-k vector; a single value for max).  Its overall LoP is the
**maximum** over rounds ("that gives us a measure of the highest level of
knowledge an adversary can obtain", Section 5.3).  System-level numbers are
the mean (average case) or max (worst case) over nodes.

Every function here reads one :class:`ExposureProfile` per result, built in a
single pass over the run's token hops and memoised on the result (DESIGN.md
§4): scoring never materialises the kernels' lazy event log.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from ..core.results import ProtocolResult


def value_in(item: float, values: Sequence[float]) -> bool:
    """Tolerant float membership: is ``item`` (an ulp or two close to) a value?

    Protocol vectors accumulate float arithmetic — AVG divisions, noise
    perturbation, encode/decode round-trips — so a node's data item can
    differ from its occurrence in an observed vector by rounding alone.
    Exact ``in`` would then under-count exposure (a claim that *is* true
    scored as false), silently biasing every LoP estimate downward.  The
    tolerances match :meth:`repro.experiments.series.Series.y_at`.
    """
    return any(
        math.isclose(item, v, rel_tol=1e-9, abs_tol=1e-12) for v in values
    )


def item_round_lop(
    item: float,
    output_vector: Sequence[float],
    final_result: Sequence[float],
) -> float:
    """Per-trial LoP contribution of one data item in one round."""
    if value_in(item, final_result):
        return 0.0
    return 1.0 if value_in(item, output_vector) else 0.0


@dataclass(frozen=True)
class ExposureProfile:
    """Per-node, per-round LoP of one finished run."""

    #: Rounds with token traffic, ascending (``event_log.rounds()``).
    rounds: tuple[int, ...]
    #: round -> node -> LoP, non-zero scores only: a node that exposed
    #: nothing in a round, or forwarded nothing (e.g. it crashed — an
    #: adversary observed nothing new from it), is absent and scores 0.
    by_round: dict[int, dict[str, float]]
    #: node -> peak per-round LoP, for every node of ``ring_order``.
    peak: dict[str, float]

    def round_lop(self, node: str, round_number: int) -> float:
        row = self.by_round.get(round_number)
        return row.get(node, 0.0) if row else 0.0


def exposure_profile(result: ProtocolResult) -> ExposureProfile:
    """The run's exposure profile: built on first read, then a memo read."""
    profile = result._exposure
    if profile is None:
        profile = result._exposure = _build_profile(result)
    return profile


def _build_profile(result: ProtocolResult) -> ExposureProfile:
    """One pass over the token hops: O(n·R·k²) ``isclose`` calls."""
    isclose = math.isclose
    final = tuple(result.final_vector)
    # Items already public in the final result contribute 0 in every round;
    # only the others can be exposed.  node -> (private items, item count).
    private = {
        node: ([v for v in items if not value_in(v, final)], len(items))
        for node, items in result.local_vectors.items()
        if items
    }
    by_round: dict[int, dict[str, float]] = {}
    for round_number, sender, output in result.event_log.token_outputs():
        if sender not in private:
            continue  # nothing to expose: the node took part with no items
        candidates, n_items = private[sender]
        # Each item scores 0.0 or 1.0, so their sum is an exact count and
        # ``hits / n_items`` is bit-identical to the mean of
        # :func:`item_round_lop` over the node's items.  :func:`value_in`
        # is spelled out: this is the innermost loop of every executed
        # query.  A hop already carrying the final vector (about half of
        # them) exposes nothing — no private item is close to a final value.
        hits = 0
        if output != final:
            for item in candidates:
                for v in output:
                    if isclose(item, v, rel_tol=1e-9, abs_tol=1e-12):
                        hits += 1
                        break
        # A re-sent token (failure recovery) overwrites, like ``outputs_of``.
        if hits:
            by_round.setdefault(round_number, {})[sender] = hits / n_items
        elif round_number in by_round:
            by_round[round_number].pop(sender, None)
    rounds = tuple(result.event_log.rounds())
    peak = dict.fromkeys(result.ring_order, 0.0)
    for round_number in rounds:
        for node, score in by_round.get(round_number, {}).items():
            if node in peak and score > peak[node]:
                peak[node] = score
    return ExposureProfile(rounds=rounds, by_round=by_round, peak=peak)


def node_lop(result: ProtocolResult, node: str) -> float:
    """The node's overall LoP: its peak per-round LoP across the run."""
    return exposure_profile(result).peak[node]


def per_round_average_lop(result: ProtocolResult) -> dict[int, float]:
    """Round -> mean LoP over all nodes (the Figure 7 quantity, one trial)."""
    profile = exposure_profile(result)
    nodes = result.ring_order
    return {
        r: sum(profile.round_lop(node, r) for node in nodes) / len(nodes)
        for r in profile.rounds
    }


def average_lop(result: ProtocolResult) -> float:
    """System average-case LoP: mean over nodes of each node's peak LoP."""
    peak = exposure_profile(result).peak
    nodes = result.ring_order
    return sum(peak[node] for node in nodes) / len(nodes)


def worst_case_lop(result: ProtocolResult) -> float:
    """System worst-case LoP: the most-exposed node's peak LoP."""
    peak = exposure_profile(result).peak
    return max(peak[node] for node in result.ring_order)
