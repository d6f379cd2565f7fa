"""Unit and behavioural tests for the LoP estimator (repro.privacy.lop)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import (
    KERNEL,
    NAIVE,
    SESSION,
    RunConfig,
    run_many_on_vectors,
    run_protocol_on_vectors,
)
from repro.core.kernel import _LazyKernelLog
from repro.core.params import ProtocolParams
from repro.database.database import database_from_values
from repro.database.query import PAPER_DOMAIN, TopKQuery
from repro.federation import Federation
from repro.network.failures import FailureInjector
from repro.privacy.lop import (
    average_lop,
    exposure_profile,
    item_round_lop,
    node_lop,
    per_round_average_lop,
    value_in,
    worst_case_lop,
)

from ..conftest import counting_engine, make_vectors


class TestTolerantMembership:
    """Float-equality regression: estimators must not miss ulp-off matches.

    Protocol vectors accumulate float arithmetic, so a node's item can differ
    from its occurrence in an observed vector by rounding alone.  The old
    exact ``in`` silently under-counted exposure in that case.
    """

    # The canonical float-accumulation mismatch: 0.1 + 0.2 != 0.3 exactly.
    DRIFTED = 0.1 + 0.2

    def test_value_in_exact_match(self):
        assert value_in(5.0, [1.0, 5.0, 9.0])

    def test_value_in_tolerates_accumulated_rounding(self):
        assert self.DRIFTED != 0.3
        assert value_in(0.3, [self.DRIFTED])

    def test_value_in_rejects_distinct_values(self):
        assert not value_in(0.3, [0.31])
        assert not value_in(5.0, [])

    def test_drifted_final_result_value_stays_free(self):
        # The item IS (up to rounding) the public result: no breach.  Exact
        # equality used to score this 1.0 — pure float noise read as exposure.
        assert item_round_lop(0.3, [self.DRIFTED], [self.DRIFTED]) == 0.0

    def test_drifted_private_exposure_still_counts(self):
        # The observed vector holds a rounded copy of the private item; the
        # adversary's claim is true and must score 1.0 even though exact
        # equality would call it false.
        assert item_round_lop(0.3, [self.DRIFTED], [9.0]) == 1.0


class TestItemRoundLop:
    def test_final_result_values_are_free(self):
        # Observing a value that is public anyway is not a breach.
        assert item_round_lop(9.0, [9.0], [9.0]) == 0.0

    def test_exposed_private_value_scores_one(self):
        assert item_round_lop(5.0, [5.0], [9.0]) == 1.0

    def test_unexposed_value_scores_zero(self):
        assert item_round_lop(5.0, [7.0], [9.0]) == 0.0

    def test_vector_membership(self):
        assert item_round_lop(5.0, [9.0, 5.0, 1.0], [9.0, 8.0, 7.0]) == 1.0


class TestNaiveProtocolLop:
    """The naive protocol's known analytic LoP anchors the estimator."""

    def _run(self, values, seed=0):
        from repro.database.query import Domain, TopKQuery

        query = TopKQuery(table="t", attribute="a", k=1, domain=Domain(1, 10_000))
        return run_protocol_on_vectors(
            make_vectors(values), query, RunConfig(protocol=NAIVE, seed=seed)
        )

    def test_starter_with_non_max_value_fully_exposed(self):
        # node0 starts the naive protocol; unless it holds the max, its
        # successor sees its value verbatim: LoP = 1.
        result = self._run([100, 200, 9000, 50])
        assert result.starter == "node0"
        assert node_lop(result, "node0") == 1.0

    def test_starter_holding_max_not_penalized(self):
        result = self._run([9000, 200, 100, 50])
        assert node_lop(result, "node0") == 0.0

    def test_node_that_never_wins_scores_zero(self):
        # A node whose output was always someone else's running max.
        result = self._run([9000, 1, 2, 3])
        # Every non-starter node just forwards 9000 (the final result).
        for node in ("node1", "node2", "node3"):
            assert node_lop(result, node) == 0.0

    def test_average_and_worst_relationship(self):
        result = self._run([100, 200, 9000, 50])
        assert 0.0 <= average_lop(result) <= worst_case_lop(result) <= 1.0


class TestProbabilisticLop:
    def _run(self, values, p0=1.0, d=0.5, rounds=8, seed=0):
        from repro.database.query import Domain, TopKQuery

        query = TopKQuery(table="t", attribute="a", k=1, domain=Domain(1, 10_000))
        params = ProtocolParams.with_randomization(p0, d, rounds=rounds)
        return run_protocol_on_vectors(
            make_vectors(values), query, RunConfig(params=params, seed=seed)
        )

    def test_p0_one_round_one_lop_zero(self):
        # Every contributor randomizes in round 1, so round-1 LoP is 0.
        for seed in range(10):
            result = self._run([10, 4000, 7000, 200], seed=seed)
            per_round = per_round_average_lop(result)
            assert per_round[1] == 0.0

    def test_max_holder_never_penalized(self):
        # The node holding v_max only ever emits noise below v_max or v_max
        # itself (which is public): LoP must be 0.
        for seed in range(10):
            result = self._run([10, 20, 9999, 30], seed=seed)
            holder = next(
                n for n, vs in result.local_vectors.items() if vs == [9999.0]
            )
            assert node_lop(result, holder) == 0.0

    def test_probabilistic_beats_naive_on_average(self):
        values = [100, 200, 9000, 50, 375, 777]
        total_prob, total_naive = 0.0, 0.0
        for seed in range(30):
            total_prob += average_lop(self._run(values, seed=seed))
            from repro.database.query import Domain, TopKQuery

            query = TopKQuery(table="t", attribute="a", k=1, domain=Domain(1, 10_000))
            naive_result = run_protocol_on_vectors(
                make_vectors(values), query, RunConfig(protocol=NAIVE, seed=seed)
            )
            total_naive += average_lop(naive_result)
        assert total_prob < total_naive

    def test_per_round_keys_match_executed_rounds(self):
        result = self._run([1, 2, 3], rounds=4)
        assert sorted(per_round_average_lop(result)) == [1, 2, 3, 4]

    def test_node_round_lop_of_silent_round_is_zero(self):
        result = self._run([1, 2, 3], rounds=2)
        assert exposure_profile(result).round_lop("node0", 99) == 0.0

    def test_node_lop_is_peak_of_rounds(self):
        result = self._run([10, 4000, 7000, 200], rounds=6, seed=3)
        for node in result.ring_order:
            rounds = result.event_log.rounds()
            peak = max(exposure_profile(result).round_lop(node, r) for r in rounds)
            assert node_lop(result, node) == peak


# -- the exposure profile against the estimator it replaced --------------------


def reference_lop(result):
    """The pre-profile estimator, verbatim: one ``outputs_of`` read per
    (node, round), ``item_round_lop`` per item, peak over ``rounds()``."""
    log, final = result.event_log, result.final_vector
    rounds = log.rounds()
    by_round, peak = {}, {}
    for node in result.ring_order:
        items = result.local_vectors[node]
        for r in rounds:
            output = log.outputs_of(node).get(r)
            if not items or output is None:
                by_round[node, r] = 0.0
            else:
                by_round[node, r] = sum(
                    item_round_lop(v, output, final) for v in items
                ) / len(items)
        peak[node] = max((by_round[node, r] for r in rounds), default=0.0)
    return rounds, by_round, peak


def run_on(executor, vectors, query, config):
    if executor == "batch":
        # One job is far below the crossover: lower it, so the vectorized
        # engine's lazily built pass records stay under this test — and
        # check the engine really ran whatever it can replay.
        with counting_engine(crossover=1) as engine_calls:
            (result,) = run_many_on_vectors(
                [(vectors, query, config)], backend=KERNEL
            )
        assert engine_calls == [1] * config.params.insert_once
        return result
    backend = SESSION if executor == "session" else KERNEL
    return run_protocol_on_vectors(vectors, query, config, backend=backend)


@given(
    executor=st.sampled_from(["session", "kernel", "batch"]),
    smallest=st.booleans(),
    k=st.integers(1, 5),
    values=st.lists(
        st.lists(st.integers(1, 10_000).map(float), min_size=1, max_size=6),
        min_size=3,
        max_size=12,
    ),
    insert_once=st.booleans(),
    remap=st.booleans(),
    crash=st.none() | st.tuples(st.integers(0, 10), st.integers(1, 40)),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=120, deadline=None)
def test_property_profile_equals_the_old_estimator(
    executor, smallest, k, values, insert_once, remap, crash, seed
):
    vectors = {f"node{i:02d}": vs for i, vs in enumerate(values)}
    query = TopKQuery(
        table="t", attribute="a", k=k, domain=PAPER_DOMAIN, smallest=smallest
    )
    params = ProtocolParams.paper_defaults(
        rounds=4, insert_once=insert_once, remap_each_round=remap
    )
    config = RunConfig(params=params, seed=seed)
    if crash is not None and executor == "session" and len(vectors) > 3:
        # Crash a non-starter mid-run (the same seed picks the same starter;
        # a repaired ring still needs three members): the victim's later
        # rounds forward nothing, and ring repair replays tokens.
        victim_index, after_messages = crash
        starter = run_on(executor, vectors, query, config).starter
        survivors = sorted(set(vectors) - {starter})
        failures = FailureInjector()
        failures.schedule_crash(
            survivors[victim_index % len(survivors)], after_messages
        )
        config = RunConfig(params=params, seed=seed, failures=failures)
    result = run_on(executor, vectors, query, config)

    # Profile first: on a kernel log it must not need a single Observation.
    profile = exposure_profile(result)
    if isinstance(result.event_log, _LazyKernelLog):
        assert result.event_log._cache is None
    rounds, by_round, peak = reference_lop(result)

    nodes = result.ring_order
    assert list(profile.rounds) == rounds
    assert profile.peak == peak
    for (node, r), expected in by_round.items():
        assert profile.round_lop(node, r) == expected
    assert {n: node_lop(result, n) for n in nodes} == peak
    assert average_lop(result) == sum(peak[n] for n in nodes) / len(nodes)
    assert worst_case_lop(result) == max(peak[n] for n in nodes)
    assert per_round_average_lop(result) == {
        r: sum(by_round[n, r] for n in nodes) / len(nodes) for r in rounds
    }


class TestServingPath:
    """An executed ranking query is charged and audited from the kernels'
    pass records alone: no ``Observation`` is ever built for it."""

    def test_ranking_miss_never_materializes_the_log(self, monkeypatch, transcripts):
        def refuse(self):
            raise AssertionError("the serving path materialized an event log")

        monkeypatch.setattr(_LazyKernelLog, "_materialize", refuse)
        federation = Federation(domain=PAPER_DOMAIN, seed=7)
        for owner, values in {
            "acme": [100, 900, 250],
            "bravo": [9000, 40],
            "corex": [7000, 6500, 3],
            "delta": [5],
        }.items():
            federation.register(database_from_values(owner, values))

        outcome = federation.execute("SELECT TOP 2 value FROM data")
        batch = federation.execute_many_settled(
            ["SELECT BOTTOM 2 value FROM data", "SELECT MAX(value) FROM data"]
        )

        # Single statements and batches alike run the kernels.
        assert len(transcripts) == 3
        for run in transcripts:
            assert isinstance(run.event_log, _LazyKernelLog)
        assert federation.ledger.runs_charged == 3
        assert set(federation.ledger.exposures) == set(federation.members)
        audited = [entry.average_lop for entry in federation.audit]
        assert audited == [o.average_lop for o in (outcome, *batch)]
        assert audited == [average_lop(run) for run in transcripts]
        assert all(0.0 <= lop <= 1.0 for lop in audited)
        with pytest.raises(AssertionError, match="materialized"):
            list(transcripts[1].event_log)
