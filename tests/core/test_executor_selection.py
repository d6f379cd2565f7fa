"""Which executor runs a job: the one rule, checked by mechanism and by result.

The rule (``core/driver.py`` + ``core/batch.py``): a config with transport
obligations runs the session; otherwise a shape group of at least
``batch.VECTOR_CROSSOVER`` jobs runs on the vectorized engine and
everything smaller — like every shape the engine cannot replay — on the
scalar kernel.  The mechanism cases count calls into each executor; the
property holds that the choice is invisible in the results.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import batch, driver
from repro.core.driver import (
    KERNEL,
    NAIVE,
    SESSION,
    RunConfig,
    run_many_on_vectors,
    run_protocol_on_vectors,
)
from repro.database.query import Domain, TopKQuery
from repro.network.failures import FailureInjector
from repro.network.transport import InMemoryTransport

from ..conftest import counting_engine
from .test_batch_kernel_parity import assert_results_identical

DOMAIN = Domain(1, 10_000)


def jobs_of_shape(n: int, k: int, count: int, *, seed: int = 0, smallest=False, **config):
    """``count`` jobs sharing one engine-replayable shape (fresh data each)."""
    rng = random.Random(f"{n}:{k}:{seed}")
    query = TopKQuery(table="t", attribute="v", k=k, domain=DOMAIN, smallest=smallest)
    return [
        (
            {
                f"n{i}": [float(rng.randint(1, 10_000)) for _ in range(k + 1)]
                for i in range(n)
            },
            query,
            RunConfig(seed=rng.randrange(2**31), **config),
        )
        for _ in range(count)
    ]


@contextmanager
def counting_executors():
    """Yield call counters for all three executors."""
    counts = {"scalar": 0, "session": 0}
    run_scalar = batch.execute_scalar
    session_class = driver.ProtocolSession

    def counted_scalar(*args, **kwargs):
        counts["scalar"] += 1
        return run_scalar(*args, **kwargs)

    def counted_session(*args, **kwargs):
        counts["session"] += 1
        return session_class(*args, **kwargs)

    with counting_engine() as engine_calls, pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch, "execute_scalar", counted_scalar)
        patch.setattr(driver, "ProtocolSession", counted_session)
        counts["engine"] = engine_calls
        yield counts


class TestCountedMechanism:
    def test_the_constant_is_the_measured_crossover(self):
        # DESIGN.md "Which executor runs" holds the table this comes from.
        assert batch.VECTOR_CROSSOVER == 16

    def test_one_job_runs_the_scalar_kernel(self):
        (job,) = jobs_of_shape(6, 2, 1)
        with counting_executors() as counts:
            run_protocol_on_vectors(*job)
            run_many_on_vectors([job])
        assert counts == {"engine": [], "scalar": 2, "session": 0}

    def test_fifteen_same_shape_jobs_stay_scalar(self):
        with counting_executors() as counts:
            run_many_on_vectors(jobs_of_shape(6, 2, 15))
        assert counts == {"engine": [], "scalar": 15, "session": 0}

    def test_sixteen_same_shape_jobs_run_one_vectorized_group(self):
        with counting_executors() as counts:
            run_many_on_vectors(jobs_of_shape(6, 2, 16))
        assert counts == {"engine": [16], "scalar": 0, "session": 0}

    def test_a_mixed_batch_splits_per_shape_group(self):
        # 20 + 16 reach the crossover, 9 do not, and the naive protocol is a
        # shape the engine cannot replay however many jobs share it.
        jobs = (
            jobs_of_shape(5, 1, 20)
            + jobs_of_shape(8, 3, 9)
            + jobs_of_shape(4, 2, 16, smallest=True)
            + jobs_of_shape(5, 1, 17, seed=1, protocol=NAIVE)
        )
        random.Random(3).shuffle(jobs)
        with counting_executors() as counts:
            results = run_many_on_vectors(jobs)
        assert sorted(counts["engine"]) == [16, 20]
        assert counts["scalar"] == 9 + 17
        assert counts["session"] == 0
        # Job order survives the split.
        for (vectors, query, config), result in zip(jobs, results):
            assert result.protocol == config.protocol
            assert result.original_query == query
            assert set(result.local_vectors) == set(vectors)

    def test_a_refusing_config_never_touches_a_kernel(self):
        jobs = jobs_of_shape(6, 2, 20, failures=FailureInjector())
        with counting_executors() as counts:
            run_protocol_on_vectors(*jobs[0])
            run_many_on_vectors(jobs)
        assert counts == {"engine": [], "scalar": 0, "session": 21}

    def test_transport_free_jobs_deliver_no_messages(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a transport-free job reached the transport")

        monkeypatch.setattr(InMemoryTransport, "send", refuse)
        jobs = jobs_of_shape(6, 2, 17)
        run_protocol_on_vectors(*jobs[0])
        run_many_on_vectors(jobs)
        with pytest.raises(AssertionError, match="reached the transport"):
            run_protocol_on_vectors(*jobs[0], backend=SESSION)


@st.composite
def mixed_batches(draw):
    """B in [1, 40] jobs over up to three shapes, TOP and BOTTOM."""
    shapes = draw(
        st.lists(
            st.tuples(
                st.integers(3, 9),  # n
                st.integers(1, 3),  # k
                st.booleans(),  # BOTTOM-k
                st.booleans(),  # the naive protocol: scalar at any group size
            ),
            min_size=1,
            max_size=3,
        )
    )
    size = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**31))
    rng = random.Random(seed)
    jobs = []
    for index in range(size):
        n, k, smallest, naive = rng.choice(shapes)
        jobs += jobs_of_shape(
            n,
            k,
            1,
            seed=seed + index,
            smallest=smallest,
            **({"protocol": NAIVE} if naive else {}),
        )
    return jobs


@given(mixed_batches())
@settings(max_examples=40, deadline=None)
def test_results_do_not_depend_on_the_side_of_the_constant(jobs):
    reference = run_many_on_vectors(jobs, backend=SESSION)
    shipped = run_many_on_vectors(jobs)
    with counting_engine(crossover=1) as all_vectorized:
        above = run_many_on_vectors(jobs, backend=KERNEL)
    with counting_engine(crossover=sys.maxsize) as none_vectorized:
        below = run_many_on_vectors(jobs, backend=KERNEL)
    assert none_vectorized == []
    replayable = sum(job[2].protocol != NAIVE for job in jobs)
    assert sum(all_vectorized) == replayable
    for want, a, b, c in zip(reference, shipped, above, below):
        assert_results_identical(want, a)
        assert_results_identical(want, b)
        assert_results_identical(want, c)
