"""The ablations EXPERIMENTS.md reports ("Ablations beyond the paper").

Each test measures one design choice DESIGN.md calls out and asserts the
qualitative outcome the table states.  They are seeded and small (at most
ten trials a point), so the outcomes are exact per seed: a change that moves
one of them changed protocol behaviour, not luck.
"""

import random

from repro.analysis.efficiency import grouped_total_messages, total_messages
from repro.core.driver import RunConfig, run_protocol_on_vectors
from repro.core.noise import HighBiasedNoise, LowBiasedNoise, UniformNoise
from repro.core.params import ProtocolParams
from repro.core.schedule import (
    ConstantCutoffSchedule,
    ExponentialSchedule,
    LinearSchedule,
)
from repro.database.generator import DataGenerator
from repro.database.query import Domain, TopKQuery
from repro.experiments.config import TrialSetup
from repro.experiments.runner import (
    aggregate_coalition_lop,
    aggregate_node_lop,
    mean_final_precision,
    mean_precision_by_round,
    run_trials,
)
from repro.extensions.groups import run_grouped_max
from repro.extensions.kth_element import kth_largest
from repro.network.ring import RingTopology
from repro.network.trust import TrustGraph, build_trusted_ring

SEED = 2025
TRIALS = 10
ROUNDS = 8
DOMAIN = Domain(1, 10_000)
#: Average LoP of the naive protocol at n=8 (Figure 10): the line every
#: probabilistic variant must stay under.
NAIVE_LOP_N8 = 0.2


def _vectors(n: int, per_node: int, seed: int) -> dict[str, list[float]]:
    datasets = DataGenerator(rng=random.Random(seed)).node_datasets(n, per_node)
    return {
        f"n{i}": [float(v) for v in values] for i, values in enumerate(datasets)
    }


def _trials(params: ProtocolParams, *, n: int = 8, k: int = 1, **setup):
    return run_trials(
        TrialSetup(n=n, k=k, params=params, trials=TRIALS, seed=SEED, **setup)
    )


def test_schedule_shapes_all_converge_below_naive():
    # Section 7 future work: other P_r(r) shapes at a matched round budget.
    schedules = {
        "exponential": ExponentialSchedule(p0=1.0, d=0.5),
        "linear": LinearSchedule(p0=1.0, slope=1.0 / ROUNDS),
        "constant-cutoff": ConstantCutoffSchedule(p0=0.75, cutoff=ROUNDS // 2),
    }
    for name, schedule in schedules.items():
        results = _trials(ProtocolParams(schedule=schedule, rounds=ROUNDS))
        assert mean_final_precision(results) == 1.0, name
        assert aggregate_node_lop(results)[0] < NAIVE_LOP_N8, name


def test_remapping_does_not_raise_coalition_exposure():
    # Section 4.3: a new ring every round denies a static pair a fixed victim.
    exposure = {}
    for remap in (False, True):
        params = ProtocolParams.paper_defaults(rounds=ROUNDS, remap_each_round=remap)
        exposure[remap] = aggregate_coalition_lop(_trials(params, n=6))[0]
    assert 0.0 <= exposure[True] <= exposure[False] * 1.25


def test_correctness_is_independent_of_delta():
    # Algorithm 2's minimum random range: noise stays strictly below the
    # k-th real value by construction, whatever delta widens it to.
    for delta in (1.0, 50.0, 500.0):
        params = ProtocolParams(
            schedule=ExponentialSchedule(p0=1.0, d=0.5), rounds=ROUNDS, delta=delta
        )
        results = _trials(params, k=4, values_per_node=8)
        curve = [y for _, y in mean_precision_by_round(results, ROUNDS)]
        assert curve[-1] == 1.0, delta
        assert curve == sorted(curve), delta


def test_insert_once_never_leaks_more_than_tracked_reinsertion():
    # Algorithm 2's "a node only does this once".  Naive re-merging corrupts
    # the vector with duplicates; the library's re-insertion mode tracks what
    # the node inserted.  Both converge, and the paper's rule leaks no more.
    outcome = {}
    for insert_once in (True, False):
        params = ProtocolParams(
            schedule=ExponentialSchedule(p0=1.0, d=0.5),
            rounds=10,
            insert_once=insert_once,
        )
        results = _trials(params, k=4, values_per_node=8)
        assert mean_final_precision(results) == 1.0, insert_once
        outcome[insert_once] = aggregate_node_lop(results)[0]
    assert outcome[True] <= outcome[False] + 0.02


def test_group_parallel_max_is_exact_faster_and_within_the_message_model():
    # Section 4.2: groups run concurrently, a combiner ring merges delegates.
    n_nodes, group_size = 64, 8
    query = TopKQuery(table="t", attribute="v", k=1, domain=DOMAIN)
    vectors = _vectors(n_nodes, 1, SEED)
    truth = max(values[0] for values in vectors.values())
    params = ProtocolParams.paper_defaults()
    flat = run_protocol_on_vectors(vectors, query, RunConfig(params=params, seed=SEED))
    grouped = run_grouped_max(
        vectors, query, group_size=group_size, params=params, seed=SEED
    )
    assert flat.final_vector[0] == grouped.final_vector[0] == truth
    assert grouped.simulated_seconds < flat.simulated_seconds / 2
    assert grouped.messages_total <= 1.05 * grouped_total_messages(
        n_nodes, group_size, 1.0, 0.5, 1e-3
    )
    assert flat.stats.messages_total <= 1.05 * total_messages(n_nodes, 1.0, 0.5, 1e-3)


def test_noise_placement_orders_value_exposure():
    # Section 7's design axis.  High-biased noise lifts the vector quickly,
    # so few nodes ever reveal; low-biased noise keeps it low and pushes LoP
    # toward the naive baseline.  (The flip side -- high-biased noise
    # correlates with the hider's value -- is the ext-bayes figure's axis.)
    lop = {}
    for label, strategy in (
        ("uniform", UniformNoise()),
        ("high", HighBiasedNoise(order=3)),
        ("low", LowBiasedNoise(order=3)),
    ):
        params = ProtocolParams(
            schedule=ExponentialSchedule(1.0, 0.5), rounds=ROUNDS, noise=strategy
        )
        results = _trials(params)
        assert mean_final_precision(results) == 1.0, label
        lop[label] = aggregate_node_lop(results)[0]
    assert lop["high"] < lop["uniform"] < lop["low"] < NAIVE_LOP_N8


def test_topk_ring_is_cheaper_than_binary_search_for_the_kth_value():
    # Related-work comparator (Aggarwal et al.): the search pays a full
    # secure-sum ring per domain probe, the top-k ring r_min token passes.
    k = 5
    parties = _vectors(8, 6, SEED)
    truth = sorted((v for vs in parties.values() for v in vs), reverse=True)[k - 1]
    search = kth_largest(parties, k, DOMAIN, seed=SEED)
    ranked = run_protocol_on_vectors(
        parties,
        TopKQuery(table="t", attribute="v", k=k, domain=DOMAIN),
        RunConfig(params=ProtocolParams.paper_defaults(), seed=SEED),
    )
    assert search.value == ranked.final_vector[k - 1] == truth
    assert ranked.stats.messages_total < search.messages_total


def test_trusted_ring_pins_suspected_colluders_together():
    # Section 4.3: two adjacent colluders sandwich nobody.  Everyone
    # distrusts n0 and n1 -- except each other.
    members = [f"n{i}" for i in range(8)]
    colluders = ("n0", "n1")
    graph = TrustGraph(members, default=0.8)
    for member in members[2:]:
        for colluder in colluders:
            graph.set_trust(member, colluder, 0.05)
    graph.set_trust(*colluders, 0.9)

    def sandwich_rate(build) -> float:
        rng = random.Random(SEED)
        layouts = 300
        hits = sum(
            any(
                ring.are_sandwiching(colluders, victim) for victim in members[2:]
            )
            for ring in (build(rng) for _ in range(layouts))
        )
        return hits / layouts

    by_chance = sandwich_rate(lambda rng: RingTopology.random(members, rng))
    trusted = sandwich_rate(lambda rng: build_trusted_ring(graph, rng))
    assert trusted < by_chance / 2
    assert trusted < 0.2
