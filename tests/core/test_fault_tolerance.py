"""Crash-recovery tests: the Section 3.2 ring-repair path, end to end."""

import pytest

from repro.core.driver import DriverError, RunConfig, run_protocol_on_vectors
from repro.core.params import ProtocolParams
from repro.database.query import Domain, TopKQuery
from repro.network.failures import FailureInjector

from ..conftest import make_vectors

QUERY = TopKQuery(table="t", attribute="a", k=1, domain=Domain(1, 10_000))
TOPK_QUERY = TopKQuery(table="t", attribute="a", k=3, domain=Domain(1, 10_000))


def run_with_failures(vectors, query, failures, seed=3, rounds=8):
    params = ProtocolParams.paper_defaults(rounds=rounds)
    config = RunConfig(params=params, seed=seed, failures=failures)
    return run_protocol_on_vectors(vectors, query, config)


class TestCrashBeforeStart:
    def test_pre_crashed_node_spliced_out(self):
        vectors = make_vectors([10, 20, 30, 40, 9000])
        failures = FailureInjector()
        result = run_with_failures(vectors, QUERY, failures, seed=1)
        holder = next(n for n, vs in result.local_vectors.items() if vs == [9000.0])
        # Crash some non-starter, non-max node before the run.
        victim = next(
            n
            for n in vectors
            if n != holder and n != result.starter
        )
        failures2 = FailureInjector()
        failures2.crash(victim)
        # Re-run with the same seed: same starter, same ring.
        result2 = run_with_failures(vectors, QUERY, failures2, seed=1)
        assert result2.final_vector == [9000.0]

    def test_crashed_node_value_excluded_if_it_was_unique_holder(self):
        vectors = make_vectors([10, 20, 30, 9000])
        probe = run_with_failures(vectors, QUERY, FailureInjector(), seed=2)
        holder = next(n for n, vs in probe.local_vectors.items() if vs == [9000.0])
        if holder == probe.starter:
            pytest.skip("max holder is the starter in this seeding")
        failures = FailureInjector()
        failures.crash(holder)
        result = run_with_failures(vectors, QUERY, failures, seed=2)
        # The protocol completes among survivors; the crashed node's value
        # cannot win (it never participated).
        assert result.final_vector == [30.0]


class TestCrashMidRun:
    def _mid_run(self, after_messages: int, seed: int = 4):
        vectors = make_vectors([100, 200, 300, 400, 9000, 600])
        probe = run_with_failures(vectors, QUERY, FailureInjector(), seed=seed)
        victim = next(
            n
            for n in probe.ring_order
            if n != probe.starter
            and probe.local_vectors[n] != [9000.0]
        )
        failures = FailureInjector()
        failures.schedule_crash(victim, after_messages=after_messages)
        result = run_with_failures(vectors, QUERY, failures, seed=seed)
        return result, victim

    @pytest.mark.parametrize("after_messages", [2, 5, 11, 23])
    def test_token_survives_mid_run_crash(self, after_messages):
        result, victim = self._mid_run(after_messages)
        assert result.final_vector == [9000.0]

    def test_survivors_all_learn_result(self):
        result, victim = self._mid_run(7)
        for node in result.ring_order:
            if node == victim:
                continue
            assert any(
                o.kind == "result" and o.receiver == node for o in result.event_log
            ), node

    def test_topk_crash_recovery(self):
        """Each survivor re-arms (``rearm``), dropping the stalled round's
        insertions, before the starter replays that round's token."""
        vectors = {
            "a": [9000.0, 8000.0],
            "b": [7000.0],
            "c": [100.0, 90.0],
            "d": [6500.0, 50.0],
            "e": [42.0],
        }
        probe = run_with_failures(vectors, TOPK_QUERY, FailureInjector(), seed=6)
        victim = next(n for n in probe.ring_order if n != probe.starter and n != "a")
        failures = FailureInjector()
        failures.schedule_crash(victim, after_messages=6)
        result = run_with_failures(vectors, TOPK_QUERY, failures, seed=6)
        survivors_truth = sorted(
            (v for n, vs in vectors.items() if n != victim for v in vs),
            reverse=True,
        )[:3]
        assert result.final_vector == survivors_truth


class TestDuplicateValuesAcrossRecovery:
    def test_equal_values_survive_stalled_round_replay(self):
        """Regression (found by hypothesis): per-round insertion tracking.

        Two parties hold equal values; one inserts, the token is lost with
        the other's insertion in it, and the replay carries only the first
        copy.  Without per-round tracking the second party mis-attributed
        the circulating copy as its own and never re-inserted, losing a
        duplicate from the final top-k.
        """
        vectors = {
            "n0": [1.0],
            "n1": [1.0],
            "n2": [2.0],
            "n3": [2.0],
            "n4": [1.0],
            "n5": [1.0],
        }
        query = TopKQuery(table="t", attribute="a", k=2, domain=Domain(1, 10_000))
        params = ProtocolParams.paper_defaults(rounds=8)
        failures = FailureInjector()
        failures.schedule_crash("n4", after_messages=15)
        result = run_protocol_on_vectors(
            vectors, query, RunConfig(params=params, seed=7, failures=failures)
        )
        assert result.final_vector == [2.0, 2.0]


class TestUnrecoverable:
    def test_starter_crash_is_loud(self):
        vectors = make_vectors([1, 2, 3, 4])
        probe = run_with_failures(vectors, QUERY, FailureInjector(), seed=7)
        failures = FailureInjector()
        failures.crash(probe.starter)
        with pytest.raises(DriverError, match="starting node crashed"):
            run_with_failures(vectors, QUERY, failures, seed=7)

    def test_ring_shrinking_below_three_is_loud(self):
        vectors = make_vectors([1, 2, 3])
        probe = run_with_failures(vectors, QUERY, FailureInjector(), seed=8)
        victim = next(n for n in probe.ring_order if n != probe.starter)
        failures = FailureInjector()
        failures.crash(victim)
        with pytest.raises(DriverError, match="cannot repair ring"):
            run_with_failures(vectors, QUERY, failures, seed=8)

    def test_no_injector_stall_reports_cleanly(self):
        # Without an injector a stall cannot happen in the simulator; the
        # recovery hook is a no-op and normal runs stay untouched.
        vectors = make_vectors([5, 6, 7])
        result = run_with_failures(vectors, QUERY, None, seed=9)
        assert result.final_vector == [7.0]
