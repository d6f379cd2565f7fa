"""Serial-vs-parallel parity and engine behaviour for run_trials.

Mirrors the cross-substrate parity suite in ``tests/deploy/test_parity.py``:
the process pool is an execution substrate, and it must add no behaviour of
its own.  Every protocol's trials, run with ``jobs > 1``, must be
bit-identical to the serial path — same final vectors, same ring orders,
same per-round snapshots, same aggregates.
"""

import threading
from dataclasses import replace

import pytest

from repro.core.kernel import _LazyKernelLog
from repro.core.params import ProtocolParams
from repro.experiments import run_experiment, write_csv
from repro.experiments import telemetry
from repro.experiments.config import TrialSetup
from repro.experiments.runner import (
    TrialError,
    aggregate_node_lop,
    mean_precision_by_round,
    resolve_jobs,
    run_trials,
    run_trials_many,
    shutdown_pool,
    using_jobs,
)

#: These classes exercise the real pool; the gate would (correctly) refuse
#: it for workloads this small.  The gate itself is ``TestPoolGating``'s.
real_pool = pytest.mark.usefixtures("ungated_pool")


@pytest.fixture(scope="module", autouse=True)
def no_pool_thread_outlives_the_module():
    """The shared pool lives on between runs by design; its threads must not
    outlive these tests, or every later process-shard test meets a process
    it may not fork (``ProcessShard.launch`` refuses with a thread alive)."""
    yield
    shutdown_pool()
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(timeout=30)

PROTOCOL_SETUPS = {
    "naive": dict(n=4, k=1, protocol="naive"),
    "max": dict(n=4, k=1, protocol="probabilistic"),
    "top-k": dict(n=5, k=3, protocol="probabilistic"),
}


def small_setup(**overrides) -> TrialSetup:
    defaults = dict(
        n=4,
        k=1,
        params=ProtocolParams.paper_defaults(rounds=5),
        trials=8,
        seed=11,
    )
    defaults.update(overrides)
    return TrialSetup(**defaults)


def assert_results_identical(serial, parallel):
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.final_vector == b.final_vector
        assert a.ring_order == b.ring_order
        assert a.starter == b.starter
        assert a.local_vectors == b.local_vectors
        assert a.round_snapshots == b.round_snapshots
        assert a.stats.messages_total == b.stats.messages_total


@real_pool
class TestParity:
    @pytest.mark.parametrize("name", sorted(PROTOCOL_SETUPS))
    def test_bit_identical_across_protocols(self, name):
        setup = small_setup(**PROTOCOL_SETUPS[name])
        serial = run_trials(setup, jobs=1)
        parallel = run_trials(setup, jobs=4)
        assert_results_identical(serial, parallel)

    @pytest.mark.parametrize("name", sorted(PROTOCOL_SETUPS))
    def test_aggregates_bit_identical(self, name):
        setup = small_setup(**PROTOCOL_SETUPS[name])
        serial = run_trials(setup, jobs=1)
        parallel = run_trials(setup, jobs=3)
        rounds = 5
        assert mean_precision_by_round(serial, rounds) == mean_precision_by_round(
            parallel, rounds
        )
        assert aggregate_node_lop(serial) == aggregate_node_lop(parallel)

    def test_many_matches_one_by_one(self):
        setups = [small_setup(seed=s) for s in (1, 2, 3)]
        batched = run_trials_many(setups, jobs=2)
        for setup, results in zip(setups, batched):
            assert_results_identical(run_trials(setup, jobs=1), results)

    def test_chunking_does_not_reorder(self):
        # More chunks than trials-per-chunk: ordering must still hold.
        setup = small_setup(trials=13)
        serial = run_trials(setup, jobs=1)
        parallel = run_trials(setup, jobs=5)
        assert_results_identical(serial, parallel)

    def test_pool_workers_ship_lazy_pass_records(self, tmp_path):
        setup = small_setup(k=2, trials=6)
        serial = run_trials(setup, jobs=1)
        with telemetry.collect() as tel:
            pooled = run_trials(setup, jobs=2)
        assert tel.points[0].mode == "parallel"
        assert_results_identical(serial, pooled)
        # Workers ship the kernels' compact pass records, never a
        # materialized log, and the parent scores LoP straight from them.
        assert aggregate_node_lop(serial) == aggregate_node_lop(pooled)
        for result in pooled:
            assert isinstance(result.event_log, _LazyKernelLog)
            assert result.event_log._cache is None
        csv_bytes = {
            jobs: write_csv(
                run_experiment("fig7", trials=6, jobs=jobs),
                tmp_path / f"fig7-jobs{jobs}.csv",
            ).read_bytes()
            for jobs in (1, 2)
        }
        assert csv_bytes[1] == csv_bytes[2]


class TestJobsResolution:
    def test_default_is_serial(self):
        assert resolve_jobs(None) == 1

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(-2)

    def test_using_jobs_scopes_the_default(self):
        with using_jobs(3):
            assert resolve_jobs(None) == 3
            with using_jobs(1):
                assert resolve_jobs(None) == 1
            assert resolve_jobs(None) == 3
        assert resolve_jobs(None) == 1

    def test_explicit_jobs_beats_scope(self):
        setup = small_setup(trials=4)
        with using_jobs(4):
            serial = run_trials(setup, jobs=1)
        assert_results_identical(serial, run_trials(setup, jobs=1))


@real_pool
class TestTelemetry:
    def test_serial_point_recorded(self):
        setup = small_setup(trials=5)
        with telemetry.collect() as tel:
            run_trials(setup, jobs=1)
        assert len(tel.points) == 1
        point = tel.points[0]
        assert point.mode == "serial"
        assert point.trials == 5
        assert point.failures == 0
        assert len(point.timings) == 5
        assert all(t.ok for t in point.timings)
        assert point.wall_seconds > 0.0
        assert 0.0 < point.utilization <= 1.0

    def test_parallel_point_recorded(self):
        setup = small_setup(trials=6)
        with telemetry.collect() as tel:
            run_trials(setup, jobs=2)
        (point,) = tel.points
        assert point.mode == "parallel"
        assert point.jobs == 2
        assert sorted(t.trial_index for t in point.timings) == list(range(6))

    def test_nested_collectors_both_see_the_run(self):
        setup = small_setup(trials=3)
        with telemetry.collect() as outer:
            with telemetry.collect() as inner:
                run_trials(setup, jobs=1)
        assert len(outer.points) == len(inner.points) == 1

    def test_summary_and_render(self):
        setup = small_setup(trials=4)
        with telemetry.collect() as tel:
            run_trials_many([setup, replace(setup, seed=12)], jobs=2)
        summary = tel.summary()
        assert summary["points"] == 2
        assert summary["trials"] == 8
        assert summary["failures"] == 0
        assert 0.0 < summary["utilization"] <= 1.0
        rendered = tel.render()
        assert "sweep point" in rendered
        assert "8 trials over 2 sweep points" in rendered

    def test_no_collector_is_free(self):
        # Telemetry off: runs still work and record nowhere.
        run_trials(small_setup(trials=2), jobs=1)


class TestFailureAccounting:
    def test_serial_failure_raises_trial_error(self, monkeypatch):
        import repro.experiments.runner as runner_module

        def explode(setup, trial_index):
            if trial_index == 2:
                raise RuntimeError("boom")
            return original(setup, trial_index)

        # Patching ``trial_job`` poisons both execution paths: the batched
        # engine sees the error while building its job list and falls back
        # to the per-trial loop, which attributes it to the exact trial.
        original = runner_module.trial_job
        monkeypatch.setattr(runner_module, "trial_job", explode)
        with telemetry.collect() as tel:
            with pytest.raises(TrialError, match="trial 2"):
                run_trials(small_setup(trials=5), jobs=1)
        (point,) = tel.points
        assert point.failures == 1
        assert [t.ok for t in point.timings] == [True, True, False, True, True]


class TestPoolGating:
    def gated_setup(self):
        return small_setup(trials=6)

    def test_pool_never_auto_selected_when_it_loses(self, monkeypatch):
        # The jobs=2 speedup-0.62 regression: one core, tiny workload.
        monkeypatch.setattr("repro.experiments.runner.os.cpu_count", lambda: 1)
        with telemetry.collect() as tel:
            serial = run_trials(self.gated_setup(), jobs=1)
            gated = run_trials(self.gated_setup(), jobs=2)
        assert_results_identical(serial, gated)
        modes = [point.mode for point in tel.points]
        assert modes == ["serial", "serial-gated"]
        assert all(point.workers == (tel.points[0].workers[0],) for point in tel.points)

    def test_small_workload_gated_even_with_cores(self, monkeypatch):
        monkeypatch.setattr("repro.experiments.runner.os.cpu_count", lambda: 8)
        with telemetry.collect() as tel:
            run_trials(self.gated_setup(), jobs=2)
        (point,) = tel.points
        assert point.mode == "serial-gated"

    def test_long_run_within_cores_reaches_the_pool(self, monkeypatch):
        # The other side of the rule: enough estimated work, enough cores.
        import repro.experiments.runner as runner_module

        monkeypatch.setattr("repro.experiments.runner.os.cpu_count", lambda: 8)
        monkeypatch.setattr(runner_module, "_MIN_POOL_TRIALS", 6)
        with telemetry.collect() as tel:
            run_trials(self.gated_setup(), jobs=2)
        (point,) = tel.points
        assert point.mode == "parallel"

@real_pool
class TestPoolLifecycle:
    def test_shutdown_pool_idempotent(self):
        run_trials(small_setup(trials=2), jobs=2)
        shutdown_pool()
        shutdown_pool()
        # Pool recreates transparently on the next parallel call.
        results = run_trials(small_setup(trials=2), jobs=2)
        assert len(results) == 2
