"""Property-based parity: the vectorized batch kernel vs its two oracles.

The batch engine (:mod:`repro.core.batch`) claims *bit-identical* results
while executing whole trial batches as numpy array ops — Eq. 2 coin flips,
noise draws, k-vector merges and the closed-form byte accounting all
vectorized across trials x rounds.  That claim has two independent oracles:

* the **session backend** with per-query tagging (what
  ``run_many_on_vectors(backend="session")`` runs) — the batch default
  ``q{index}`` ids must match it field for field, event logs and traffic
  breakdowns included; and
* the **scalar kernel** run one job at a time — untagged batch ids
  (``query_ids=[""]``) must match solo runs exactly, which is what the
  experiment runner's batched chunks rely on.

Alongside parity: the driver's default routing (kernel when the shared
config is transport-free, session otherwise), the loud refusal surface under
``backend="kernel"``, and pickling of the batch results' lazy stats/log
objects (the process-pool result path).

The executor rule sends groups below ``batch.VECTOR_CROSSOVER`` to the
scalar kernel, which would turn most of this suite into scalar-vs-scalar.
A module fixture lowers the constant to 1 — every group the engine can
replay runs on it — and counts ``_Group.execute`` calls, and each case that
claims to compare the engine asserts the count (:func:`engine_groups`).
"""

from __future__ import annotations

import pickle
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import execute_many
from repro.core.driver import (
    KERNEL,
    NAIVE,
    SESSION,
    DriverError,
    KernelUnsupported,
    RunConfig,
    run_many_on_vectors,
    run_protocol_on_vectors,
)
from repro.core.kernel import execute as execute_scalar
from repro.core.noise import HighBiasedNoise, LowBiasedNoise, UniformNoise
from repro.core.params import ProtocolParams
from repro.core.results import TrafficStats
from repro.core.schedule import ExponentialSchedule
from repro.core.session import prepare_query_vectors
from repro.database.query import Domain, TopKQuery
from repro.network.failures import FailureInjector

from ..conftest import counting_engine

INTEGRAL_DOMAIN = Domain(1, 10_000)
REAL_DOMAIN = Domain(1.0, 10_000.0, integral=False)

NOISES = {
    "uniform": UniformNoise(),
    "high": HighBiasedNoise(order=3),
    "low": LowBiasedNoise(order=2),
}

#: One entry (the group's size) per ``_Group.execute`` call in this module.
ENGINE_CALLS: list[int] = []


@pytest.fixture(autouse=True, scope="module")
def engine_at_every_group_size():
    """Crossover 1 for this suite, and a call counter on the engine."""
    global ENGINE_CALLS
    with counting_engine(crossover=1) as ENGINE_CALLS:
        yield


@contextmanager
def engine_groups(expected: int):
    """Assert the vectorized engine ran exactly ``expected`` groups inside."""
    before = len(ENGINE_CALLS)
    yield
    assert len(ENGINE_CALLS) - before == expected, ENGINE_CALLS[before:]


def replayable_groups(jobs) -> int:
    """Groups the engine must run for one ``batch_cases`` batch.

    Every job of a case shares one shape and the generated data never hits a
    data-level fallback, so the only scalar-only axis is re-insertion mode.
    """
    return int(jobs[0][2].params.insert_once)


def assert_results_identical(expected, actual) -> None:
    """Field-by-field bitwise equality, message ids excepted."""
    assert actual.query == expected.query
    assert actual.protocol == expected.protocol
    assert actual.final_vector == expected.final_vector
    assert actual.ring_order == expected.ring_order
    assert actual.starter == expected.starter
    assert actual.local_vectors == expected.local_vectors
    assert actual.round_snapshots == expected.round_snapshots
    assert actual.ring_history == expected.ring_history
    assert actual.rounds_executed == expected.rounds_executed
    assert actual.simulated_seconds == expected.simulated_seconds
    assert actual.negated == expected.negated
    assert actual.original_query == expected.original_query
    # The full traffic breakdown, not just the totals: per_link/per_round/
    # per_type/per_query are materialized lazily by the batch engine, so
    # reading them here is what verifies the lazy path.
    assert actual.stats == expected.stats
    assert actual.stats.per_link == expected.stats.per_link
    assert actual.stats.per_round == expected.stats.per_round
    assert actual.stats.per_type == expected.stats.per_type
    assert actual.stats.per_query == expected.stats.per_query
    theirs = list(expected.event_log)
    ours = list(actual.event_log)
    assert len(ours) == len(theirs)
    for want, got in zip(theirs, ours):
        assert got.round == want.round
        assert got.sender == want.sender
        assert got.receiver == want.receiver
        assert got.vector == want.vector
        assert got.kind == want.kind
        assert got.query == want.query


@st.composite
def batch_cases(draw):
    """A whole batch of jobs sharing one transport-free config family.

    Sweeps the ISSUE's axes — n, k, p0, d, noise strategy — plus the
    shape edges the vectorized path special-cases: short rows (padding),
    ragged rows, real domains, smallest-k negation, remaps, explicit and
    derived rounds.
    """
    n = draw(st.integers(min_value=3, max_value=14))
    k = draw(st.integers(min_value=1, max_value=4))
    p0 = draw(st.sampled_from((0.0, 0.25, 1.0)))
    d = draw(st.sampled_from((0.25, 0.5, 1.0)))
    noise = draw(st.sampled_from(sorted(NOISES)))
    integral = draw(st.booleans())
    smallest = draw(st.booleans())
    remap = draw(st.booleans())
    insert_once = draw(st.booleans())
    rounds = draw(st.sampled_from((2, 4, 6)))
    jobs_count = draw(st.integers(min_value=1, max_value=4))
    ragged = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))

    rng = random.Random(seed)
    domain = INTEGRAL_DOMAIN if integral else REAL_DOMAIN

    def one_value():
        if integral:
            return float(rng.randint(int(domain.low), int(domain.high)))
        return rng.uniform(domain.low, domain.high)

    params = ProtocolParams(
        schedule=ExponentialSchedule(p0=p0, d=d),
        rounds=rounds,
        remap_each_round=remap,
        insert_once=insert_once,
        noise=NOISES[noise],
    )
    query = TopKQuery(
        table="t", attribute="v", k=k, domain=domain, smallest=smallest
    )
    jobs = []
    for j in range(jobs_count):
        widths = (
            [rng.randint(1, k + 2) for _ in range(n)] if ragged else [k] * n
        )
        vectors = {
            f"n{i}": [one_value() for _ in range(widths[i])] for i in range(n)
        }
        config = RunConfig(params=params, seed=rng.randrange(2**31))
        jobs.append((vectors, query, config))
    return jobs


@given(batch_cases())
@settings(max_examples=50, deadline=None)
def test_batch_bit_identical_to_session_batch(jobs):
    """Tagged batch output == the shared-transport session batch, all fields."""
    expected = run_many_on_vectors(jobs, backend=SESSION)
    with engine_groups(replayable_groups(jobs)):
        actual = execute_many(jobs)
    for want, got in zip(expected, actual):
        assert_results_identical(want, got)


@given(batch_cases())
@settings(max_examples=25, deadline=None)
def test_untagged_batch_bit_identical_to_solo_scalar_kernel(jobs):
    """query_ids="" batch output == each job run alone on the scalar kernel."""
    with engine_groups(replayable_groups(jobs)):
        actual = execute_many(jobs, query_ids=[""] * len(jobs))
    for (vectors, query, config), got in zip(jobs, actual):
        solo = execute_scalar(
            prepare_query_vectors(vectors, query), config
        ).result
        assert_results_identical(solo, got)
        assert got.precision() == solo.precision()
        assert got.answer() == solo.answer()


class TestNoiseEdges:
    """Hand-picked degenerate points the random sweep rarely lands on."""

    QUERY = TopKQuery(table="t", attribute="v", k=2, domain=INTEGRAL_DOMAIN)

    def run_both(self, vectors, params, seeds):
        jobs = [
            (vectors, self.QUERY, RunConfig(params=params, seed=s))
            for s in seeds
        ]
        expected = run_many_on_vectors(jobs, backend=SESSION)
        with engine_groups(1):
            actual = execute_many(jobs)
        for want, got in zip(expected, actual):
            assert_results_identical(want, got)
        return actual

    def test_all_values_at_domain_floor(self):
        # kth - delta falls below dom_low: the admissible noise range is
        # empty/degenerate, the scalar path skips the draw, the vectorized
        # path must skip the very same words.
        vectors = {f"n{i}": [1.0, 1.0] for i in range(5)}
        params = ProtocolParams.paper_defaults(rounds=4)
        self.run_both(vectors, params, seeds=range(6))

    def test_delta_wider_than_domain(self):
        vectors = {f"n{i}": [float(5 + i)] for i in range(4)}
        params = ProtocolParams.paper_defaults(rounds=3, delta=50_000.0)
        self.run_both(vectors, params, seeds=range(4))

    def test_p0_zero_never_randomizes(self):
        vectors = {f"n{i}": [float(100 * (i + 1))] for i in range(5)}
        params = ProtocolParams(
            schedule=ExponentialSchedule(p0=0.0), rounds=3
        )
        results = self.run_both(vectors, params, seeds=range(4))
        for result in results:
            assert result.answer() == [500.0, 400.0]

    def test_p0_one_with_unit_dampening_randomizes_every_round(self):
        vectors = {f"n{i}": [float(100 * (i + 1))] for i in range(5)}
        params = ProtocolParams(
            schedule=ExponentialSchedule(p0=1.0, d=1.0), rounds=5
        )
        self.run_both(vectors, params, seeds=range(6))

    def test_real_domain_with_biased_noise(self):
        query = TopKQuery(table="t", attribute="v", k=1, domain=REAL_DOMAIN)
        vectors = {f"n{i}": [10.5 * (i + 1)] for i in range(4)}
        params = ProtocolParams.paper_defaults(
            rounds=4, noise=HighBiasedNoise(order=4)
        )
        jobs = [
            (vectors, query, RunConfig(params=params, seed=s))
            for s in range(5)
        ]
        expected = run_many_on_vectors(jobs, backend=SESSION)
        with engine_groups(1):
            actual = execute_many(jobs)
        for want, got in zip(expected, actual):
            assert_results_identical(want, got)


class TestScalarFallbacks:
    """Jobs the vectorized path cannot group still come back bit-identical."""

    def test_naive_protocol_falls_back_per_job(self):
        vectors = {f"n{i}": [float(10 + i)] for i in range(4)}
        query = TopKQuery(table="t", attribute="v", k=1, domain=INTEGRAL_DOMAIN)
        jobs = [
            (vectors, query, RunConfig(protocol=NAIVE, seed=s))
            for s in range(3)
        ]
        expected = run_many_on_vectors(jobs, backend=SESSION)
        with engine_groups(0):
            actual = execute_many(jobs)
        for want, got in zip(expected, actual):
            assert_results_identical(want, got)

    def test_mixed_shapes_in_one_batch(self):
        # Different n and k per job: no single numpy group covers the batch,
        # yet job order and per-job identity must hold.
        query = lambda k: TopKQuery(
            table="t", attribute="v", k=k, domain=INTEGRAL_DOMAIN
        )
        jobs = []
        for j, (n, k) in enumerate([(3, 1), (7, 3), (3, 1), (12, 2)]):
            vectors = {f"n{i}": [float(17 * (i + j + 1))] for i in range(n)}
            jobs.append((vectors, query(k), RunConfig(seed=100 + j)))
        expected = run_many_on_vectors(jobs, backend=SESSION)
        with engine_groups(3):  # (3, 1) twice, (7, 3), (12, 2)
            actual = execute_many(jobs)
        for want, got in zip(expected, actual):
            assert_results_identical(want, got)

    def test_non_finite_data_matches_session_behaviour(self):
        # NaN payloads route through the scalar classifier; whatever the
        # session does with them, the batch does identically.
        vectors = {
            "a": [float("nan"), 50.0],
            "b": [700.0],
            "c": [30.0],
        }
        query = TopKQuery(table="t", attribute="v", k=1, domain=INTEGRAL_DOMAIN)
        jobs = [(vectors, query, RunConfig(seed=3))]
        expected = run_many_on_vectors(jobs, backend=SESSION)
        with engine_groups(0):
            actual = execute_many(jobs)
        for want, got in zip(expected, actual):
            assert_results_identical(want, got)

    def test_below_minimum_ring_rejected_identically(self):
        # Single-party and two-party "rings" fail with the session's own
        # error, not a numpy shape error from deep inside the batch.
        query = TopKQuery(table="t", attribute="v", k=1, domain=INTEGRAL_DOMAIN)
        for n in (1, 2):
            vectors = {f"n{i}": [5.0] for i in range(n)}
            with pytest.raises(DriverError, match="n >= 3"):
                run_many_on_vectors([(vectors, query, RunConfig(seed=1))])
            with pytest.raises(DriverError, match="n >= 3"):
                execute_many([(vectors, query, RunConfig(seed=1))])

    def test_signed_zero_payload(self):
        # repr(-0.0) is a byte longer than repr(0.0): byte accounting and
        # sort order must both survive the vectorized path.
        domain = Domain(-100.0, 100.0, integral=False)
        vectors = {"a": [-0.0, 3.0], "b": [0.0], "c": [-7.5]}
        query = TopKQuery(table="t", attribute="v", k=2, domain=domain)
        jobs = [(vectors, query, RunConfig(seed=s)) for s in range(3)]
        expected = run_many_on_vectors(jobs, backend=SESSION)
        with engine_groups(0):  # a domain spanning zero is scalar-only
            actual = execute_many(jobs)
        for want, got in zip(expected, actual):
            assert_results_identical(want, got)


class TestDriverRouting:
    VECTORS = {f"n{i}": [float(10 + i)] for i in range(4)}
    QUERY = TopKQuery(table="t", attribute="v", k=1, domain=INTEGRAL_DOMAIN)

    def jobs(self, count=3, **config_kwargs):
        return [
            (self.VECTORS, self.QUERY, RunConfig(seed=s, **config_kwargs))
            for s in range(count)
        ]

    def test_auto_routes_clean_configs_to_the_kernel(self):
        # The default rule and an explicit KERNEL pin run the same
        # substrate: identical results, including byte totals no
        # session-ism could reproduce by accident.
        with engine_groups(1):
            auto = run_many_on_vectors(self.jobs())
        forced = run_many_on_vectors(self.jobs(), backend=KERNEL)
        for want, got in zip(forced, auto):
            assert_results_identical(want, got)

    def test_auto_falls_back_to_session_for_transport_configs(self):
        jobs = self.jobs(failures=FailureInjector())
        with engine_groups(0):
            results = run_many_on_vectors(jobs)  # the rule: must not refuse
        expected = run_many_on_vectors(jobs, backend=SESSION)
        for want, got in zip(expected, results):
            assert_results_identical(want, got)
        # The session actually ran: simulated time reflects its deliveries.
        assert all(r.simulated_seconds > 0.0 for r in results)

    def test_kernel_backend_refuses_loudly(self):
        with pytest.raises(KernelUnsupported, match="failure injection"):
            run_many_on_vectors(self.jobs(failures=FailureInjector()), backend=KERNEL)

    def test_unknown_backend_is_a_driver_error(self):
        with pytest.raises(DriverError, match="unknown backend"):
            run_many_on_vectors(self.jobs(), backend="turbo")

    def test_trace_length_mismatch_rejected(self):
        with pytest.raises(DriverError, match="trace contexts"):
            run_many_on_vectors(self.jobs(count=3), traces=[None])

    def test_empty_batch_on_every_backend(self):
        for backend in (None, KERNEL, SESSION):
            assert run_many_on_vectors([], backend=backend) == []

    def test_solo_entry_point_defaults_to_the_rule(self):
        # A transport-free solo run takes the kernel path untagged, exactly
        # like an explicit KERNEL pin; both equal the session reference.
        job = (self.VECTORS, self.QUERY, RunConfig(seed=5))
        default = run_protocol_on_vectors(*job)
        assert default.stats.per_query == {"": default.stats.messages_total}
        assert_results_identical(
            run_protocol_on_vectors(*job, backend=KERNEL), default
        )
        assert_results_identical(
            run_protocol_on_vectors(*job, backend=SESSION), default
        )


class TestPickling:
    """Batch results cross process-pool boundaries; their lazy parts must
    materialize through pickle, not ship unpicklable closures."""

    def batch_result(self):
        vectors = {f"n{i}": [float(10 + i), 3.0] for i in range(5)}
        query = TopKQuery(table="t", attribute="v", k=2, domain=INTEGRAL_DOMAIN)
        jobs = [(vectors, query, RunConfig(seed=s)) for s in range(2)]
        with engine_groups(1):
            return execute_many(jobs)[0]

    def test_result_round_trips(self):
        result = self.batch_result()
        clone = pickle.loads(pickle.dumps(result))
        assert_results_identical(result, clone)

    def test_stats_materialize_to_plain_traffic_stats(self):
        result = self.batch_result()
        clone = pickle.loads(pickle.dumps(result.stats))
        assert type(clone) is TrafficStats
        assert clone == result.stats
        assert clone.per_link == result.stats.per_link

    def test_lazy_stats_compare_before_materialization(self):
        # Equality must not require touching the lazy breakdowns first.
        one = self.batch_result()
        two = self.batch_result()
        assert one.stats == two.stats
        assert not (one.stats != two.stats)
