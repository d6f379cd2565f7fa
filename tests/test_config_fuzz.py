"""Configuration fuzzing: any sensible RunConfig must stay exact.

Hypothesis samples protocol configurations across every orthogonal knob —
protocol, schedule family, noise strategy, ring policy, and an idle failure
injector or none, so both the session and the kernels run — and asserts the
run still returns the exact top-k.  Correctness
must be invariant to deployment choices; only privacy/cost may vary.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import RunConfig, run_protocol_on_vectors
from repro.core.noise import HighBiasedNoise, LowBiasedNoise, UniformNoise
from repro.core.params import ProtocolParams
from repro.core.schedule import (
    ConstantCutoffSchedule,
    ExponentialSchedule,
    LinearSchedule,
)
from repro.database.query import Domain, TopKQuery
from repro.network.failures import FailureInjector

DOMAIN = Domain(1, 10_000)

schedules = st.one_of(
    st.builds(
        ExponentialSchedule,
        p0=st.sampled_from([0.25, 0.5, 1.0]),
        d=st.sampled_from([0.25, 0.5]),
    ),
    st.builds(LinearSchedule, p0=st.just(1.0), slope=st.sampled_from([0.2, 0.5])),
    st.builds(
        ConstantCutoffSchedule,
        p0=st.sampled_from([0.3, 0.6]),
        cutoff=st.sampled_from([2, 4]),
    ),
)
noises = st.sampled_from(
    [UniformNoise(), HighBiasedNoise(order=2), LowBiasedNoise(order=3)]
)
injectors = st.one_of(st.none(), st.builds(FailureInjector))
workloads = st.dictionaries(
    st.sampled_from([f"n{i}" for i in range(7)]),
    st.lists(
        st.integers(min_value=1, max_value=10_000).map(float), min_size=1, max_size=4
    ),
    min_size=3,
    max_size=7,
)


@given(
    vectors=workloads,
    k=st.integers(min_value=1, max_value=4),
    schedule=schedules,
    noise=noises,
    failures=injectors,
    remap=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=50, deadline=None)
def test_any_configuration_is_exact(
    vectors, k, schedule, noise, failures, remap, seed
):
    query = TopKQuery(table="t", attribute="v", k=k, domain=DOMAIN)
    params = ProtocolParams(
        schedule=schedule, rounds=10, noise=noise, remap_each_round=remap
    )
    config = RunConfig(params=params, seed=seed, failures=failures)
    result = run_protocol_on_vectors(vectors, query, config)

    merged = sorted((v for vs in vectors.values() for v in vs), reverse=True)[:k]
    merged += [float(DOMAIN.low)] * (k - len(merged))
    assert result.final_vector == merged
