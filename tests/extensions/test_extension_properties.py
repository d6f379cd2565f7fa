"""Property-based tests across the extension subsystems."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.params import ProtocolParams
from repro.core.schedule import ExponentialSchedule
from repro.database.query import Domain, TopKQuery
from repro.extensions.groups import run_grouped_topk
from repro.extensions.knn import PrivateKNNClassifier, PrivateParty
from repro.extensions.securesum import run_secure_sum

DOMAIN = Domain(1, 10_000)

party_values = st.lists(
    st.integers(min_value=1, max_value=10_000).map(float), min_size=1, max_size=4
)


@given(
    data=st.lists(party_values, min_size=6, max_size=14),
    k=st.integers(min_value=1, max_value=4),
    group_size=st.integers(min_value=3, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30, deadline=None)
def test_property_grouped_topk_equals_flat_truth(data, k, group_size, seed):
    """The grouping identity: top-k of the groups' top-ks is the global top-k.

    Run with ``p0 = 0`` (the naive deterministic reduction) so the protocol
    itself is exact: under the paper-default randomized schedule a run can
    legitimately finish with residual noise in the vector (probability
    ``Eq. 3``), which is protocol behaviour, not a grouping error — asserting
    exact equality there is flaky by design.
    """
    vectors = {f"p{i}": values for i, values in enumerate(data)}
    query = TopKQuery(table="t", attribute="v", k=k, domain=DOMAIN)
    params = ProtocolParams(schedule=ExponentialSchedule(p0=0.0), rounds=3)
    outcome = run_grouped_topk(
        vectors, query, group_size=group_size, params=params, seed=seed
    )
    merged = sorted((v for vs in data for v in vs), reverse=True)[:k]
    merged += [float(DOMAIN.low)] * (k - len(merged))
    assert outcome.final_vector == merged


@given(
    data=st.lists(party_values, min_size=6, max_size=14),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=15, deadline=None)
def test_property_grouped_topk_randomized_contains_no_fabrications(data, seed):
    """Under the randomized schedule, every reported value is real or noise
    below the true maximum — a grouped run never *invents* a value above it."""
    vectors = {f"p{i}": values for i, values in enumerate(data)}
    query = TopKQuery(table="t", attribute="v", k=1, domain=DOMAIN)
    outcome = run_grouped_topk(vectors, query, group_size=3, seed=seed)
    true_max = max(v for vs in data for v in vs)
    assert outcome.final_vector[0] <= true_max


@given(
    sums=st.lists(
        st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
        min_size=3,
        max_size=8,
    ),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_property_avg_consistency(sums, seed):
    """SUM and COUNT via independent secure sums stay mutually consistent."""
    values = {f"p{i}": v for i, v in enumerate(sums)}
    counts = {f"p{i}": 1.0 for i in range(len(sums))}
    total = run_secure_sum(values, seed=seed).total
    count = run_secure_sum(counts, seed=seed + 1).total
    assert round(count) == len(sums)
    assert total / round(count) == pytest.approx(
        sum(sums) / len(sums), rel=1e-6, abs=1e-3
    )


KNN_LABELS = ("alpha", "beta")


def _classify_random_query(seed, k, params=None):
    rng = random.Random(seed)
    parties = []
    for i in range(3):
        party = PrivateParty(f"org{i}")
        for _ in range(8):
            label = rng.choice(KNN_LABELS)
            centre = 0.0 if label == "alpha" else 5.0
            party.add((rng.gauss(centre, 1.0), rng.gauss(centre, 1.0)), label)
        parties.append(party)
    classifier = PrivateKNNClassifier(parties, k=k, params=params, seed=seed)
    return classifier.classify((rng.uniform(-1, 6), rng.uniform(-1, 6)))


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    k=st.integers(min_value=1, max_value=9),
)
@example(seed=669, k=5)  # two of the five returned distances are residual noise
@settings(max_examples=15, deadline=None)
def test_property_knn_prediction_well_formed(seed, k):
    prediction = _classify_random_query(seed, k)
    # Structural invariants regardless of where the query lands:
    assert prediction.label in KNN_LABELS
    assert prediction.neighbour_distances == sorted(prediction.neighbour_distances)
    assert len(prediction.neighbour_distances) == k
    # Only distances some party holds cast a vote; the probabilistic protocol
    # may return residual randomised values (Eq. 3), which cast none.
    assert 0 <= sum(prediction.votes.values()) <= k
    assert all(count >= 0 for count in prediction.votes.values())


@pytest.mark.parametrize("k", [1, 5, 9])
def test_knn_exact_protocol_casts_exactly_k_votes(k):
    exact = ProtocolParams(schedule=ExponentialSchedule(p0=0.0), rounds=3)
    prediction = _classify_random_query(669, k, params=exact)
    assert sum(prediction.votes.values()) == k
