"""Group-level exposure and m-anonymity (Section 2.2).

"We can consider data exposures from the perspective of a group of nodes by
treating this subset of nodes as an entity.  Note that even if a group's
privacy is breached, an individual node may still maintain its privacy to
some extent ... the m-anonymity is preserved given the size m of the group."

Two quantities follow:

* **group LoP** — the Loss of Privacy of the claim "*some member of S*
  holds value a", estimated exactly like the per-node metric but over the
  union of the group's data and the union of its emissions;
* **anonymity set** of a sighted value — the set of nodes an adversary
  cannot rule out as its holder; its size is the *m* of m-anonymity.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..core.results import ProtocolResult


class GroupError(ValueError):
    """Raised for invalid group specifications."""


def _validate_members(result: ProtocolResult, members: Iterable[str]) -> list[str]:
    members = list(dict.fromkeys(members))
    if not members:
        raise GroupError("the group must be non-empty")
    unknown = [m for m in members if m not in result.ring_order]
    if unknown:
        raise GroupError(f"unknown group members: {unknown}")
    return members


def group_round_lop(
    result: ProtocolResult, members: Iterable[str], round_number: int
) -> float:
    """Empirical LoP of the group-entity claim for one round.

    Per group data item ``v``: 0 when ``v`` is public anyway (in the final
    result), else the indicator that some member's round output contained
    ``v`` — i.e. the claim "someone in S holds v" is both *makeable* and
    true.
    """
    members = _validate_members(result, members)
    items = [v for m in members for v in result.local_vectors[m]]
    if not items:
        return 0.0
    # Keyed by sender so a re-sent token overwrites, like ``outputs_of``.
    outputs = {
        sender: output
        for token_round, sender, output in result.event_log.token_outputs()
        if token_round == round_number and sender in members
    }
    emitted = {v for output in outputs.values() for v in output}
    final = set(result.final_vector)
    exposed = sum(1 for v in items if v not in final and v in emitted)
    return exposed / len(items)


def group_lop(result: ProtocolResult, members: Iterable[str]) -> float:
    """Peak group LoP over rounds — the group analogue of ``node_lop``."""
    rounds = result.event_log.rounds()
    if not rounds:
        return 0.0
    return max(group_round_lop(result, members, r) for r in rounds)


def anonymity_set(result: ProtocolResult, value: float) -> set[str]:
    """Nodes an observer of all traffic cannot rule out as holders of ``value``.

    A node is a candidate when it ever *emitted* the value (it may have
    produced it as its own, as noise, or as a pass-through — the observer
    cannot tell which).  Values in the final result keep every node as a
    candidate: everyone forwards the result, and the paper's convention is
    that each node is equally likely to hold it.
    """
    if value in result.final_vector:
        return set(result.ring_order)
    # Keyed by (round, sender) so a re-sent token overwrites, as above.
    outputs = {
        (token_round, sender): output
        for token_round, sender, output in result.event_log.token_outputs()
    }
    return {sender for (_, sender), output in outputs.items() if value in output}


def anonymity_size(result: ProtocolResult, value: float) -> int:
    """|anonymity set| — the m of m-anonymity for one sighted value."""
    return len(anonymity_set(result, value))


def is_m_anonymous(result: ProtocolResult, value: float, m: int) -> bool:
    """True when at least ``m`` nodes could plausibly hold ``value``."""
    if m < 1:
        raise GroupError(f"m must be >= 1, got {m}")
    return anonymity_size(result, value) >= m
