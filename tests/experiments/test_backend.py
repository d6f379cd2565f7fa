"""Backend selection plumbing: scoping, resolution, harness and CLI wiring.

The execution backend (session transport vs message-free kernel) is a
substrate choice, exactly like ``--jobs``: it must change throughput and
nothing else.  These tests cover the plumbing itself — ``resolve_backend``
validation, the ``using_backend`` scope, equality of harness results across
backends, composition with the process pool, and the ``--backend`` CLI flag.
"""

import pytest

from repro.core.driver import KERNEL, SESSION
from repro.core.kernel import _LazyKernelLog
from repro.core.params import ProtocolParams
from repro.experiments import run_experiment, write_csv
from repro.experiments.config import TrialSetup
from repro.experiments.runner import (
    aggregate_node_lop,
    resolve_backend,
    run_single_trial,
    run_trials,
    run_trials_many,
    using_backend,
    using_pool_policy,
)
from repro.experiments.telemetry import PointTelemetry


def small_setup(**overrides) -> TrialSetup:
    defaults = dict(
        n=4,
        k=2,
        params=ProtocolParams.paper_defaults(rounds=4),
        trials=6,
        seed=23,
    )
    defaults.update(overrides)
    return TrialSetup(**defaults)


def assert_results_identical(expected, actual):
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert a.final_vector == b.final_vector
        assert a.ring_order == b.ring_order
        assert a.starter == b.starter
        assert a.round_snapshots == b.round_snapshots
        assert a.stats == b.stats


class TestResolveBackend:
    def test_default_is_the_kernel(self):
        assert resolve_backend(None) == KERNEL

    def test_explicit_values_pass_through(self):
        assert resolve_backend(SESSION) == SESSION
        assert resolve_backend(KERNEL) == KERNEL

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("turbo")

    def test_scope_changes_the_default(self):
        with using_backend(SESSION):
            assert resolve_backend(None) == SESSION
            # An explicit choice still beats the ambient scope.
            assert resolve_backend(KERNEL) == KERNEL
        assert resolve_backend(None) == KERNEL

    def test_scopes_nest_and_restore(self):
        with using_backend(SESSION):
            with using_backend(KERNEL):
                assert resolve_backend(None) == KERNEL
            assert resolve_backend(None) == SESSION
        assert resolve_backend(None) == KERNEL

    def test_scope_rejects_unknown_backend_on_entry(self):
        with pytest.raises(ValueError, match="unknown backend"):
            with using_backend("turbo"):
                pass  # pragma: no cover
        assert resolve_backend(None) == KERNEL


class TestHarnessParity:
    def test_run_trials_identical_across_backends(self):
        setup = small_setup()
        assert_results_identical(
            run_trials(setup, backend=SESSION), run_trials(setup, backend=KERNEL)
        )

    def test_single_trial_honours_the_ambient_scope(self):
        setup = small_setup()
        with using_backend(SESSION):
            ambient = run_single_trial(setup, 0)
        explicit = run_single_trial(setup, 0, backend=SESSION)
        kernel = run_single_trial(setup, 0, backend=KERNEL)
        assert ambient.final_vector == explicit.final_vector
        assert ambient.final_vector == kernel.final_vector
        assert ambient.stats == kernel.stats

    def test_run_trials_many_threads_the_backend(self):
        setups = [small_setup(), small_setup(n=5, seed=29)]
        by_session = run_trials_many(setups, backend=SESSION)
        by_kernel = run_trials_many(setups, backend=KERNEL)
        for a, b in zip(by_session, by_kernel):
            assert_results_identical(a, b)

    def test_backend_composes_with_jobs(self, tmp_path):
        setup = small_setup()
        serial = run_trials(setup, jobs=1, backend=KERNEL)
        # "always": the auto gate would keep a workload this small in-process.
        with using_pool_policy("always"):
            pooled = run_trials(setup, jobs=2, backend=KERNEL)
            by_jobs = {
                jobs: run_experiment("fig7", trials=6, jobs=jobs, backend=KERNEL)
                for jobs in (1, 2)
            }
        assert_results_identical(serial, pooled)
        # Workers ship the kernels' compact pass records, never a
        # materialized log, and the parent scores LoP straight from them.
        assert aggregate_node_lop(serial) == aggregate_node_lop(pooled)
        for result in pooled:
            assert isinstance(result.event_log, _LazyKernelLog)
            assert result.event_log._cache is None
        csv_bytes = {
            jobs: write_csv(panels, tmp_path / f"fig7-jobs{jobs}.csv").read_bytes()
            for jobs, panels in by_jobs.items()
        }
        assert csv_bytes[1] == csv_bytes[2]

    def test_telemetry_records_the_backend(self):
        point = PointTelemetry(
            label="x",
            trials=1,
            jobs=1,
            mode="serial",
            wall_seconds=0.1,
            trial_seconds=0.1,
            failures=0,
            workers=(),
        )
        assert point.backend == SESSION  # conservative default for old callers


class TestCliFlag:
    def parse(self, argv):
        from repro.cli import build_parser

        return build_parser().parse_args(argv)

    def test_backend_flag_parses(self):
        args = self.parse(["figure", "fig6", "--backend", "kernel"])
        assert args.backend == "kernel"
        args = self.parse(["report", "--backend", "session"])
        assert args.backend == "session"

    def test_backend_defaults_to_ambient(self):
        args = self.parse(["figure", "fig6"])
        assert args.backend is None

    def test_unknown_backend_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            self.parse(["figure", "fig6", "--backend", "turbo"])
        assert "invalid choice" in capsys.readouterr().err
