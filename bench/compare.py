#!/usr/bin/env python3
"""Compare two benchmark result files, base first.

    python3 bench/compare.py A.json B.json            # end-to-end verdicts
    python3 bench/compare.py A.json B.json --layers   # + per-layer values

A and B are files written by ``bench/run.py`` (``--out``); A is the base
(the parent commit, or the first of two runs of one commit), B the change.
For every workload and every end-to-end or user-visible metric it prints
both medians, the ratio B/A with its base, the bound from
``bench/catalog.py`` (``BENCHMARK.json`` is its projection) and a verdict:

* ``regress``    B's median is worse than A's by more than the bound.
* ``unresolved`` within the bound, but the run-to-run spread (distance
  between the quartiles over the median, either side) is wider than the
  bound, so "unchanged" cannot be claimed -- unless every run of B reads
  better than every run of A.  Needs ``--repeat`` > 1 on both sides.
* ``moved``      an exact metric (bound 0: seed-deterministic) differs in
  the better direction: behaviour changed, not speed.
* ``pass``       otherwise.

Exits 1 when any metric regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalog  # noqa: E402


def load(path: str) -> dict:
    """``(workload, trace) -> {metric: [value per run]}`` plus units."""
    runs: dict = {}
    for result in json.loads(Path(path).read_text()):
        per_metric = runs.setdefault((result["workload"], result["trace"]), {})
        for name, metric in result["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return runs


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _middle, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / abs(middle) if middle else 0.0


def verdict(metric: catalog.Metric, base: list, change: list) -> str:
    a, b = statistics.median(base), statistics.median(change)
    worse = (a - b) if metric.better == "higher" else (b - a)
    if metric.bound == 0.0:
        if worse > 0:
            return "regress"
        return "moved" if worse < 0 else "pass"
    if worse > metric.bound * abs(a):
        return "regress"
    if max(spread(base), spread(change)) > metric.bound:
        if metric.better == "higher":
            clear = min(change) > max(base)
        else:
            clear = max(change) < min(base)
        if not clear:
            return "unresolved"
    return "pass"


def compare(base_runs: dict, change_runs: dict, layers: bool, out=sys.stdout) -> int:
    regressions = 0
    for workload in catalog.ALL:
        base = base_runs.get((workload, 0))
        change = change_runs.get((workload, 0))
        if base is None or change is None:
            continue
        runs_a = len(next(iter(base.values())))
        runs_b = len(next(iter(change.values())))
        print(f"\n== {workload}  (A: {runs_a} run(s), B: {runs_b} run(s))", file=out)
        print(f"  {'metric':<16}{'A':>14}{'B':>14}  {'B/A of base':<24}"
              f"{'bound':>7}  verdict", file=out)
        for metric in catalog.END_TO_END + catalog.USER_VISIBLE:
            if metric.name not in base or metric.name not in change:
                continue
            a = statistics.median(base[metric.name])
            b = statistics.median(change[metric.name])
            ratio = f"{b / a:.3f} of {a:.6g} {metric.unit}" if a else f"base is 0 {metric.unit}"
            bound = "exact" if metric.bound == 0.0 else f"{metric.bound:.0%}"
            result = verdict(metric, base[metric.name], change[metric.name])
            regressions += result == "regress"
            print(f"  {metric.name:<16}{a:>14.6g}{b:>14.6g}  {ratio:<24}"
                  f"{bound:>7}  {result}", file=out)
        if not layers:
            continue
        base, change = base_runs.get((workload, 1)), change_runs.get((workload, 1))
        if base is None or change is None:
            print("  (no traced run on both sides)", file=out)
            continue
        print(f"  {'per-layer (traced run)':<42}{'A':>14}{'B':>14}  B/A", file=out)
        for metric in catalog.PER_LAYER + catalog.SHARES:
            a = statistics.median(base.get(metric.name, [0.0]))
            b = statistics.median(change.get(metric.name, [0.0]))
            if a == 0.0 and b == 0.0:
                continue
            ratio = f"{b / a:.3f}" if a else "-"
            print(f"  {metric.name:<42}{a:>14.6g}{b:>14.6g}  {ratio}", file=out)
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="A.json: the base (parent) result file")
    parser.add_argument("change", help="B.json: the result file compared with it")
    parser.add_argument("--layers", action="store_true",
                        help="also print the per-layer metrics of both traced runs")
    args = parser.parse_args(argv)
    regressions = compare(load(args.base), load(args.change), args.layers)
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
