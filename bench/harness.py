"""The load generator and the measurements around it.

One process, one thread, one asyncio loop.  A *closed loop* of ``clients``
coroutines shares one statement stream: each awaits its answer before it
takes the next statement, which is how callers of a federation behave
(they wait for their answer), so a slow program receives less load.
Latency is bench-side ``time.perf_counter()`` around ``submit``.
"""

from __future__ import annotations

import asyncio
import gc
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.service import QueryService

ROOT = Path(__file__).resolve().parent.parent
_CLK_TCK = os.sysconf("SC_CLK_TCK")


# -- process accounting -----------------------------------------------------------


def _worker_cpu_seconds(pids) -> float:
    """user+sys CPU of live worker processes (they are not reaped yet, so
    ``RUSAGE_CHILDREN`` does not see them)."""
    total = 0.0
    for pid in pids:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return total


def cpu_seconds(pids=()) -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime + _worker_cpu_seconds(pids)


def _worker_peak_rss_mb(pids) -> float:
    total = 0.0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1]) / 1024.0
    return total


def peak_rss_mb(pids=()) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + _worker_peak_rss_mb(pids)


# -- phases -------------------------------------------------------------------------


@dataclass
class Phase:
    """Raw wall/CPU and per-operation records of one run of the stream."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: (stream index, submit start, submit end, outcome-or-exception)
    records: list = field(default_factory=list)
    #: (stream index, insert start, insert end)
    writes: list = field(default_factory=list)
    #: True when the safety deadline stopped the loop before the stream ended.
    truncated: bool = False


async def _closed_loop(service, instance, start, stop, phase, deadline):
    statements = instance.statements
    writes = instance.writes
    cursor = iter(range(start, stop))
    clock = time.perf_counter

    async def client() -> None:
        for index in cursor:
            if clock() > deadline:
                phase.truncated = True
                return
            write = writes.get(index)
            if write is not None:
                database, table, row = write
                began = clock()
                database.insert(table, row)
                phase.writes.append((index, began, clock()))
            statement = statements[index]
            began = clock()
            try:
                outcome = await service.submit(statement)
            except Exception as error:  # counted by the oracle, never swallowed
                outcome = error
            phase.records.append((index, began, clock(), outcome))

    await asyncio.gather(*(client() for _ in range(instance.clients)))


def serve(instance, *, tracer=None, max_wall_s: float = 60.0, on_timed=None):
    """Warm up on the stream's head, then time the rest; returns both phases.

    One ``QueryService`` serves both phases (same instance, same caches).
    ``on_timed`` runs between the phases — the traced run installs its span
    recorder there, so warm-up is never traced.  Returns
    ``(warmup, timed, service)``.
    """
    warmup, timed = Phase(), Phase()
    pids = instance.worker_pids()

    async def scenario():
        service = QueryService(instance.target, tracer=tracer, **instance.service_kwargs)
        async with service:
            edge = instance.warmup
            await _closed_loop(
                service, instance, 0, edge, warmup, time.perf_counter() + max_wall_s)
            gc.collect()
            if on_timed is not None:
                on_timed()
            cpu0, wall0 = cpu_seconds(pids), time.perf_counter()
            await _closed_loop(
                service, instance, edge, len(instance.statements), timed,
                wall0 + max_wall_s)
            timed.wall_s = time.perf_counter() - wall0
            timed.cpu_s = cpu_seconds(pids) - cpu0
        return service

    service = asyncio.run(scenario())
    return warmup, timed, service


# -- statistics ---------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def latency_summary(samples, scale: float) -> dict:
    """Sample count, p50 from 20 samples on, p90 from 100 on (it needs at
    least ten samples beyond it)."""
    out = {"n": len(samples)}
    if len(samples) >= 20:
        out["p50"] = percentile(samples, 0.50) * scale
    if len(samples) >= 100:
        out["p90"] = percentile(samples, 0.90) * scale
    return out


# -- environment ----------------------------------------------------------------------


def environment(seed: int) -> dict:
    """Who measured, on what: recorded in every result file."""
    import numpy

    nproc = os.cpu_count() or 1
    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = 0.0
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    # The driver's checkout is not a git repository; do not let git go
    # looking for one above it.
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=5, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu_model": cpu_model,
        "load1_at_start": load1,
        "noisy": load1 > nproc,
        "seed": seed,
        "argv": sys.argv[1:],
    }

