"""Group-parallel max selection (the Section 4.2 scaling suggestion).

"One possible way to improve the efficiency for a system with a larger
number of nodes is to break the set of n nodes into a number of small groups
and have each group compute their group maximum value in parallel and then
compute the global maximum value at designated nodes, which could be
randomly selected from each small group."

Each group runs the full probabilistic max protocol on its own ring; a
randomly chosen delegate per group then joins a second-level ring that runs
the protocol over the group maxima.  Wall-clock cost becomes two protocol
depths instead of one long ring traversal per round; total messages are
comparable (measured by the ablation benchmark against the flat ring).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.driver import RunConfig, run_protocol_on_vectors
from ..core.params import ProtocolParams
from ..core.results import ProtocolResult
from ..core.vectors import merge_topk
from ..database.query import TopKQuery


class GroupError(ValueError):
    """Raised for invalid group configurations."""


@dataclass
class GroupedRunResult:
    """Outcome of a two-level (grouped) protocol run."""

    final_vector: list[float]
    groups: list[list[str]]
    delegates: list[str]
    group_results: list[ProtocolResult]
    combiner_result: ProtocolResult | None
    messages_total: int
    #: Simulated wall-clock: the slowest group (they run in parallel) plus
    #: the combiner ring.
    simulated_seconds: float


def partition_into_groups(
    node_ids: list[str], group_size: int, rng: random.Random
) -> list[list[str]]:
    """Random partition into groups of at least 3 nodes each.

    The tail group absorbs leftovers so no group falls below the protocol's
    minimum ring size.
    """
    if group_size < 3:
        raise GroupError(f"groups must have >= 3 nodes, got {group_size}")
    if len(node_ids) < 3:
        raise GroupError(f"need at least 3 nodes, got {len(node_ids)}")
    shuffled = list(node_ids)
    rng.shuffle(shuffled)
    groups = [
        shuffled[i : i + group_size] for i in range(0, len(shuffled), group_size)
    ]
    if len(groups) > 1 and len(groups[-1]) < 3:
        groups[-2].extend(groups.pop())
    return groups


def run_grouped_topk(
    local_vectors: dict[str, list[float]],
    query: TopKQuery,
    *,
    group_size: int = 8,
    params: ProtocolParams | None = None,
    seed: int | None = None,
) -> GroupedRunResult:
    """Two-level top-k selection (generalizes the paper's max-only sketch).

    Correctness rests on the same identity as for max: the global top-k is
    the top-k of the groups' top-k vectors, so each group computes its local
    answer in parallel and the delegates combine them on a second ring.
    """
    params = params or ProtocolParams.paper_defaults()
    rng = random.Random(seed)
    node_ids = sorted(local_vectors)
    groups = partition_into_groups(node_ids, group_size, rng)

    group_results: list[ProtocolResult] = []
    delegates: list[str] = []
    group_answers: dict[str, list[float]] = {}
    messages = 0
    slowest_group = 0.0
    for group in groups:
        config = RunConfig(params=params, seed=rng.getrandbits(32))
        vectors = {node: local_vectors[node] for node in group}
        result = run_protocol_on_vectors(vectors, query, config)
        group_results.append(result)
        messages += result.stats.messages_total
        slowest_group = max(slowest_group, result.simulated_seconds)
        delegate = rng.choice(group)
        delegates.append(delegate)
        group_answers[delegate] = list(result.final_vector)

    if len(groups) < 3:
        # Too few delegates for a second ring; merge the group answers
        # directly (they are public to their delegates anyway).
        best: list[float] = []
        for answer in group_answers.values():
            best = merge_topk(best, answer, query.k)
        return GroupedRunResult(
            final_vector=best,
            groups=groups,
            delegates=delegates,
            group_results=group_results,
            combiner_result=None,
            messages_total=messages,
            simulated_seconds=slowest_group,
        )

    combiner_config = RunConfig(params=params, seed=rng.getrandbits(32))
    combiner = run_protocol_on_vectors(group_answers, query, combiner_config)
    messages += combiner.stats.messages_total
    return GroupedRunResult(
        final_vector=list(combiner.final_vector),
        groups=groups,
        delegates=delegates,
        group_results=group_results,
        combiner_result=combiner,
        messages_total=messages,
        simulated_seconds=slowest_group + combiner.simulated_seconds,
    )


def run_grouped_max(
    local_vectors: dict[str, list[float]],
    query: TopKQuery,
    *,
    group_size: int = 8,
    params: ProtocolParams | None = None,
    seed: int | None = None,
) -> GroupedRunResult:
    """The paper's max-only variant (k = 1), kept as the named entry point."""
    if query.k != 1:
        raise GroupError("run_grouped_max is for k=1; use run_grouped_topk")
    return run_grouped_topk(
        local_vectors, query, group_size=group_size, params=params, seed=seed
    )
