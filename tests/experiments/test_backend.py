"""The trial harness against the driver's pinned executors.

The harness takes no executor option: every trial config is failure-free,
so the driver's rule runs it on a message-free kernel.  What must survive the option's retirement is the comparison the
option used to make possible — harness results against the reference
implementation, field for field — and that is made here by calling the one
place an executor can still be pinned, ``repro.core.driver``.
"""

import pytest

from repro.core.driver import KERNEL, SESSION, DriverError, run_protocol_on_vectors
from repro.core.kernel import _LazyKernelLog
from repro.core.params import ProtocolParams
from repro.experiments.config import TrialSetup
from repro.experiments.runner import (
    run_single_trial,
    run_trials,
    run_trials_many,
    trial_job,
)


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


def pinned(setup: TrialSetup, backend: str):
    """Every trial of ``setup`` on one pinned driver executor."""
    return [
        run_protocol_on_vectors(*trial_job(setup, index), backend=backend)
        for index in range(setup.trials)
    ]


def assert_results_identical(expected, actual):
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert a.final_vector == b.final_vector
        assert a.ring_order == b.ring_order
        assert a.starter == b.starter
        assert a.round_snapshots == b.round_snapshots
        assert a.stats == b.stats


class TestResolveBackend:
    """Who resolves the executor now: the driver's rule, and only the driver."""

    def test_default_is_the_kernel(self):
        # No option says so; the rule does, for every transport-free trial
        # config.  A kernel run is recognisable by its compact pass log.
        for result in run_trials(small_setup()):
            assert isinstance(result.event_log, _LazyKernelLog)

    def test_unknown_backend_is_rejected(self):
        # ... and the one place a pin can still be named validates it.
        with pytest.raises(DriverError, match="unknown backend"):
            run_protocol_on_vectors(*trial_job(small_setup(), 0), backend="turbo")


class TestHarnessParity:
    def test_run_trials_identical_across_backends(self):
        setups = [small_setup(), small_setup(n=5, seed=29)]
        for setup, harness in zip(setups, run_trials_many(setups)):
            assert_results_identical(pinned(setup, SESSION), harness)
            assert_results_identical(pinned(setup, KERNEL), harness)
            assert_results_identical(harness, run_trials(setup))
            assert_results_identical(
                harness[:1], [run_single_trial(setup, 0)]
            )


class TestCliFlag:
    def test_unknown_backend_is_a_usage_error(self, capsys):
        # The retired flag is refused like any flag the parser never had,
        # whatever its value, on each subcommand that used to take it.
        from repro.cli import build_parser

        for command in ("figure fig6", "all", "report", "validate", "trace"):
            for value in ("session", "kernel", "turbo"):
                with pytest.raises(SystemExit) as exit_info:
                    build_parser().parse_args(
                        [*command.split(), "--backend", value]
                    )
                assert exit_info.value.code == 2
                assert "error:" in capsys.readouterr().err
