"""Adversary models: single semi-honest observers and colluding coalitions.

Section 2.1 adopts the *semi-honest* model: parties follow the protocol but
keep (passively log) everything they see.  The strongest single adversary
against node *i* is its **successor**, which receives ``G_i(r)`` every round
— exactly what the LoP estimator in :mod:`repro.privacy.lop` scores.

Section 4.3 additionally analyses the **colluding neighbours** scenario: the
predecessor and successor of node *i* pool their views, so they know both
``G_{i-1}(r)`` and ``G_i(r)``.  Whenever the vector changed across node *i*
they learn that *i* either revealed its real contribution (probability
``1 − P_r(r)``) or injected noise — and, unlike a lone successor, they can
*attribute* a revealed final-result value to node *i* specifically, which is
why the paper notes the max-holder suffers provable exposure under
collusion.  The empirical coalition estimator therefore:

* scores a round only when it is *informative* (the vector changed across
  the victim);
* keeps the ``1/n`` prior for claimed values that are in the final result
  (the coalition's attribution beats the prior, so the LoP is positive
  rather than zero).
"""

from __future__ import annotations

from ..core.results import ProtocolResult
from ..network.ring import RingTopology
from .claims import RangeClaim
from .lop import value_in


class AdversaryError(ValueError):
    """Raised for invalid adversary configurations."""


def _ring_at_round(result: ProtocolResult, round_number: int) -> RingTopology:
    """The ring in effect during ``round_number`` (honours per-round remaps)."""
    if result.ring_history:
        eligible = [r for r in result.ring_history if r <= round_number]
        if eligible:
            return RingTopology(result.ring_history[max(eligible)])
    return RingTopology(result.ring_order)


def _vector_consumed(result: ProtocolResult, victim: str, round_number: int):
    """The vector ``victim`` computed on when producing its round-r output.

    For a non-starter that is simply its round-r input.  The starter's
    round-r output, however, was computed from the token that closed round
    r-1 (or, in round 1, from the public identity vector) — its round-r
    *input* arrives later and closes round r.
    """
    if victim != result.starter:
        return result.event_log.inputs_of(victim).get(round_number)
    if round_number == 1:
        return tuple(float(v) for v in result.query.identity_vector())
    return result.event_log.inputs_of(victim).get(round_number - 1)


def coalition_round_lop(
    result: ProtocolResult, victim: str, round_number: int
) -> float:
    """Empirical LoP of ``victim`` against its colluding neighbours, one round."""
    if victim not in result.ring_order:
        raise AdversaryError(f"unknown victim {victim!r}")
    incoming = _vector_consumed(result, victim, round_number)
    outgoing = result.event_log.outputs_of(victim).get(round_number)
    if incoming is None or outgoing is None:
        return 0.0
    if tuple(incoming) == tuple(outgoing):
        # Uninformative: the victim passed the vector on unchanged, which is
        # also what it would have done with nothing to contribute.
        return 0.0
    items = result.local_vectors[victim]
    if not items:
        return 0.0
    n = result.n_nodes
    final = result.final_vector
    total = 0.0
    for item in items:
        claim_true = value_in(item, outgoing)
        prior = 1.0 / n if value_in(item, final) else 0.0
        total += max(0.0, (1.0 if claim_true else 0.0) - prior)
    return total / len(items)


def coalition_lop(result: ProtocolResult, victim: str) -> float:
    """Peak coalition LoP across rounds for one victim."""
    rounds = result.event_log.rounds()
    if not rounds:
        return 0.0
    return max(coalition_round_lop(result, victim, r) for r in rounds)


def victim_is_sandwiched(
    result: ProtocolResult, victim: str, colluders: tuple[str, str], round_number: int
) -> bool:
    """True when ``colluders`` are exactly the victim's neighbours that round.

    With per-round ring remapping (Section 4.3 countermeasure) this holds in
    some rounds and not others, which is precisely how remapping dilutes a
    static coalition — measured by the remapping ablation benchmark.
    """
    ring = _ring_at_round(result, round_number)
    return ring.are_sandwiching(colluders, victim)


def naive_range_exposure(result: ProtocolResult, node: str) -> RangeClaim | None:
    """The range claim a successor can prove under the *naive* protocol.

    In the naive protocol every node's output is the true running max, so the
    successor of node *i* can prove ``v_i <= g_i`` (Section 3.1's range
    exposure).  For the probabilistic protocol no such proof exists and this
    returns None.
    """
    if result.protocol == "probabilistic":
        return None
    outputs = result.event_log.outputs_of(node)
    if not outputs:
        return None
    first_round_output = outputs[min(outputs)]
    bound = max(first_round_output)
    return RangeClaim(node=node, low=result.query.domain.low, high=bound)
