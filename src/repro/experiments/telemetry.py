"""Run-time observability for the trial-execution engine.

The paper averages every plotted point over 100 trials; regenerating a
figure therefore runs hundreds to thousands of protocol executions.  This
module records what that run actually cost: per-trial wall-clock, per-
sweep-point wall-clock, which worker processes did the work, and how many
trials failed.  The runner reports into whatever collectors are active
(see :func:`collect`), so the CLI's ``--timing`` flag and the parity tests
can observe the same run without threading a collector through every
figure module.

All quantities here are *observability* data: they never influence the
experiment results themselves, which stay bit-identical for a given setup
regardless of ``jobs`` (see :mod:`repro.experiments.runner`).
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class TrialTiming:
    """Cost of one protocol trial."""

    trial_index: int
    seconds: float
    worker: int  # OS pid of the process that ran the trial
    ok: bool = True


@dataclass(frozen=True)
class PointTelemetry:
    """Cost of one sweep point (one ``run_trials`` batch).

    ``trial_seconds`` is the summed per-trial compute time; comparing it
    with ``wall_seconds * jobs`` gives worker utilization — how much of the
    pool's capacity the batch actually used.
    """

    label: str
    trials: int
    jobs: int
    mode: str  # "serial" | "parallel" | "serial-fallback"
    wall_seconds: float
    trial_seconds: float
    failures: int
    workers: tuple[int, ...]
    timings: tuple[TrialTiming, ...] = ()

    @property
    def utilization(self) -> float:
        """Fraction of the pool's wall-clock capacity spent in trials."""
        capacity = self.wall_seconds * max(1, self.jobs)
        if capacity <= 0.0:
            return 1.0
        return min(1.0, self.trial_seconds / capacity)


class TelemetryCollector:
    """Accumulates sweep-point telemetry for one experiment run."""

    def __init__(self) -> None:
        self.points: list[PointTelemetry] = []

    def record(self, point: PointTelemetry) -> None:
        self.points.append(point)

    # -- aggregation ---------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        return sum(p.wall_seconds for p in self.points)

    @property
    def trial_seconds(self) -> float:
        return sum(p.trial_seconds for p in self.points)

    @property
    def trials(self) -> int:
        return sum(p.trials for p in self.points)

    @property
    def failures(self) -> int:
        return sum(p.failures for p in self.points)

    @property
    def workers(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for point in self.points:
            seen.update(point.workers)
        return tuple(sorted(seen))

    def summary(self) -> dict[str, object]:
        """A compact, metadata-embeddable cost summary."""
        jobs = max((p.jobs for p in self.points), default=1)
        capacity = sum(p.wall_seconds * max(1, p.jobs) for p in self.points)
        utilization = (
            min(1.0, self.trial_seconds / capacity) if capacity > 0 else 1.0
        )
        wall = self.wall_seconds
        return {
            "points": len(self.points),
            "trials": self.trials,
            "jobs": jobs,
            "wall_seconds": round(wall, 6),
            "trial_seconds": round(self.trial_seconds, 6),
            "trials_per_second": round(self.trials / wall, 2) if wall > 0 else 0.0,
            "utilization": round(utilization, 4),
            "workers": len(self.workers) or 1,
            "failures": self.failures,
        }

    def render(self) -> str:
        """Human-readable per-point timing table for ``--timing`` output."""
        lines = [
            f"{'sweep point':<44} {'trials':>6} {'jobs':>4} {'mode':>15} "
            f"{'wall (s)':>9} {'util':>6} {'fail':>4}"
        ]
        lines.append("-" * len(lines[0]))
        for point in self.points:
            lines.append(
                f"{point.label:<44.44} {point.trials:>6} {point.jobs:>4} "
                f"{point.mode:>15} {point.wall_seconds:>9.3f} "
                f"{point.utilization:>6.0%} {point.failures:>4}"
            )
        summary = self.summary()
        lines.append("-" * len(lines[0]))
        lines.append(
            f"total: {summary['trials']} trials over {summary['points']} "
            f"sweep points in {summary['wall_seconds']:.3f}s wall "
            f"({summary['trials_per_second']:.1f} trials/s, "
            f"{summary['trial_seconds']:.3f}s of trial compute, "
            f"{summary['utilization']:.0%} utilization, "
            f"{summary['workers']} worker(s), "
            f"{summary['failures']} failure(s))"
        )
        return "\n".join(lines)


class PhaseProfiler:
    """Aggregates the kernels' phase samples (``--timing`` output).

    The message-free kernels report where their time went — setup (the
    initialization module: ring, starter, per-node streams), the round
    loop, and result finalization — whenever a sink is installed: the scalar
    kernel one sample per run, the vectorized engine one per shape group
    (``sample.runs`` of them).  :func:`profile_phases` installs this
    profiler as that sink for a scope; the CLI shows the resulting table
    next to the trial-level timing one.  Session runs report nothing here
    (the profiler stays empty), so the table doubles as confirmation of
    which executor the driver's rule chose.
    """

    _PHASES = ("setup", "round_loop", "finalize")

    def __init__(self) -> None:
        self.runs = 0
        self.rounds = 0
        self._totals = dict.fromkeys(self._PHASES, 0.0)

    def record(self, sample: object) -> None:
        """Sink for :func:`repro.core.kernel.set_phase_sink`."""
        self.runs += sample.runs
        self.rounds += sample.rounds
        totals = self._totals
        totals["setup"] += sample.setup_seconds
        totals["round_loop"] += sample.round_loop_seconds
        totals["finalize"] += sample.finalize_seconds

    @property
    def total_seconds(self) -> float:
        return sum(self._totals.values())

    def render(self) -> str:
        """Human-readable phase breakdown for ``--timing`` output."""
        if not self.runs:
            return "kernel phases: no kernel runs"
        total = self.total_seconds
        lines = [f"{'kernel phase':<12} {'total (s)':>10} {'share':>7} {'per run (us)':>13}"]
        lines.append("-" * len(lines[0]))
        for phase in self._PHASES:
            seconds = self._totals[phase]
            share = seconds / total if total > 0 else 0.0
            lines.append(
                f"{phase:<12} {seconds:>10.4f} {share:>7.1%} "
                f"{seconds / self.runs * 1e6:>13.1f}"
            )
        lines.append("-" * len(lines[0]))
        per_run = total / self.runs if self.runs else 0.0
        rate = 1.0 / per_run if per_run > 0 else 0.0
        lines.append(
            f"{self.runs} kernel runs ({self.rounds} protocol rounds) in "
            f"{total:.4f}s inside the kernel ({rate:.1f} runs/s)"
        )
        return "\n".join(lines)


@contextmanager
def profile_phases() -> Iterator[PhaseProfiler]:
    """Scope within which kernel runs report per-phase timings.

    Installs a :class:`PhaseProfiler` as the kernel's phase sink, chaining
    to any previously installed sink so nested scopes each see the runs.
    The sink is process-local: with ``--jobs`` fanning trials to worker
    processes, only runs executed in *this* process are profiled.  The
    import is deferred so this observability module stays importable
    without the core package's execution machinery.
    """
    from ..core.kernel import set_phase_sink

    profiler = PhaseProfiler()
    previous = set_phase_sink(None)

    def sink(sample: object) -> None:
        profiler.record(sample)
        if previous is not None:
            previous(sample)

    set_phase_sink(sink)
    try:
        yield profiler
    finally:
        set_phase_sink(previous)


class ExtractionProfiler:
    """Aggregates node-local extraction samples (``--timing`` output).

    Every protocol run starts with each party's storage engine answering
    the local top-k; :func:`profile_extraction` installs this profiler as
    the extraction sink (see :mod:`repro.database.engines`) so a scope can
    see which engine did the extracting, over how many rows, and how long
    it took.  Like the phase profiler, this is observability only — the
    engines are bit-identical, so the numbers never change results.
    """

    def __init__(self) -> None:
        self.calls = 0
        self.rows = 0
        self._engines: dict[str, dict[str, float]] = {}

    def record(self, sample: object) -> None:
        """Sink for :func:`repro.database.engines.set_extraction_sink`."""
        self.calls += 1
        self.rows += sample.rows
        stats = self._engines.setdefault(
            sample.engine, {"calls": 0.0, "rows": 0.0, "seconds": 0.0}
        )
        stats["calls"] += 1
        stats["rows"] += sample.rows
        stats["seconds"] += sample.seconds

    @property
    def total_seconds(self) -> float:
        return sum(stats["seconds"] for stats in self._engines.values())

    def render(self) -> str:
        """Human-readable extraction breakdown for ``--timing`` output."""
        if not self.calls:
            return "local extraction: no extractions recorded"
        lines = [
            f"{'storage engine':<14} {'extracts':>8} {'rows':>12} "
            f"{'total (s)':>10} {'rows/s':>12}"
        ]
        lines.append("-" * len(lines[0]))
        for engine, stats in sorted(self._engines.items()):
            seconds = stats["seconds"]
            rate = stats["rows"] / seconds if seconds > 0 else 0.0
            lines.append(
                f"{engine:<14} {int(stats['calls']):>8} {int(stats['rows']):>12} "
                f"{seconds:>10.4f} {rate:>12.0f}"
            )
        lines.append("-" * len(lines[0]))
        lines.append(
            f"{self.calls} local extractions over {self.rows} rows in "
            f"{self.total_seconds:.4f}s"
        )
        return "\n".join(lines)


@contextmanager
def profile_extraction() -> Iterator[ExtractionProfiler]:
    """Scope within which node-local extractions report their timings.

    Installs an :class:`ExtractionProfiler` as the storage engines'
    extraction sink, chaining to any previously installed sink so nested
    scopes each see the samples.  Process-local, like the phase sink.  The
    import is deferred so this observability module stays importable
    without the database package.
    """
    from ..database.engines import set_extraction_sink

    profiler = ExtractionProfiler()
    previous = set_extraction_sink(None)

    def sink(sample: object) -> None:
        profiler.record(sample)
        if previous is not None:
            previous(sample)

    set_extraction_sink(sink)
    try:
        yield profiler
    finally:
        set_extraction_sink(previous)


class LatencyHistogram:
    """Exact streaming latency distribution with percentile queries.

    Used by the query-serving layer (:mod:`repro.service`) for its p50 /
    p95 / p99 latency metrics, and available to any experiment that wants a
    latency distribution rather than a mean.  Samples are kept exactly and
    percentiles computed by linear interpolation on the sorted sample, so
    two runs that record the same samples report bit-identical quantiles —
    the determinism the service's seeded simulated clock relies on.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._sorted: list[float] | None = []

    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"latency must be non-negative, got {seconds}")
        self._samples.append(float(seconds))
        self._sorted = None  # invalidate the sort cache

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    @property
    def max(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100), interpolated; 0.0 when empty."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        ordered = self._sorted
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def summary(self) -> dict[str, float]:
        """The compact quantile summary the service metrics export."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "max": self.max,
        }


#: Collectors currently listening; the runner reports to all of them so
#: nested scopes (CLI around registry around runner) each see the run.
_ACTIVE: list[TelemetryCollector] = []


@contextmanager
def collect() -> Iterator[TelemetryCollector]:
    """Scope within which trial runs report their telemetry."""
    collector = TelemetryCollector()
    _ACTIVE.append(collector)
    try:
        yield collector
    finally:
        _ACTIVE.remove(collector)


def record_point(point: PointTelemetry) -> None:
    """Report one sweep point to every active collector (runner hook)."""
    for collector in _ACTIVE:
        collector.record(point)
