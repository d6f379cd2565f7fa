#!/usr/bin/env python3
"""Measure a change against its parent on the benchmark, in alternating pairs.

    python scripts/ab_pairs.py --workloads scan_write --pairs 10
    python scripts/ab_pairs.py --base HEAD~1 --pairs 3 --out /tmp/ab

The *parent* is the ``--base`` revision (default ``HEAD``), its files
extracted from ``git archive`` into a fresh temporary directory; the *change*
is the working tree as it stands (tracked files plus untracked files git does
not ignore), copied into a second one.  Both are plain directories of files
with no ``.git``, as the benchmark's own checkouts are, so the two sides run
the same code around the workload: ``bench/harness.py`` runs ``git rev-parse``
only in a tree that has a ``.git``.  Neither side runs from the checkout, so
nothing under ``bench/out/`` is written, and the checkout's worktree list is
never touched.  Both trees are byte-compiled before the first run, so no run
pays for compiling the program.

Pair ``i`` runs ``bench/run.py --workload W --seed S_i`` once on each side, at
the benchmark's own run length, the parent first in even pairs and the change
first in odd ones, so drift over the measurement falls on both sides alike.
The seeds are the smallest integers not listed in ``results/seeds_used.txt``
(seeds someone has already looked at while developing); the ones used are
appended to it, so the next measurement starts from unseen seeds.  Each side's
runs go to ``--out`` (default: a new temporary directory) as ``parent.json``
and ``change.json``, the files ``bench/compare.py`` reads, and the table to
``table.md`` beside them.

For every workload and every metric ``bench/compare.py`` judges, the table
gives both sides' median and quartiles, the change's median over the
parent's, wins (pairs in which the change read better) out of all pairs, a
two-sided exact sign-test p over the pairs that differ, and a verdict
(:func:`verdict`): ``improved`` when the pairs show a gain, otherwise
``bench/compare.py``'s own verdict on the same runs (``regress``,
``unresolved``, ``moved`` or ``pass``).  A last column names, by seed and
side, any run further than :data:`STALL_IQRS` interquartile ranges outside
its own side's quartiles (:func:`beyond_fences`) — a stall, such as a
process whose first run paid for something the others did not.  It is
there to be seen; no verdict reads it.

Stdlib and git only.  Exits 1 if any metric regressed or any run was
incorrect or failed operations, else 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS_USED = ROOT / "results" / "seeds_used.txt"

_spec = importlib.util.spec_from_file_location("bench_compare", ROOT / "bench" / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)
catalog = compare.catalog

IMPROVED = "improved"
#: The share of pairs the change must win, and the sign-test level, to read
#: ``improved``.
WIN_SHARE = 0.9
ALPHA = 0.05
#: A run this many interquartile ranges below its side's first quartile or
#: above its third is named in the table as a stall.
STALL_IQRS = 3.0


# -- the rules: pure functions of the samples --------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, by ``statistics.quantiles`` as ``bench/compare.py``
    reads them; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _middle, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def beyond_fences(values: list[float]) -> list[int]:
    """Indices of the runs more than :data:`STALL_IQRS` interquartile ranges
    outside ``values``' own quartiles."""
    first, _median, third = quartiles(values)
    reach = STALL_IQRS * (third - first)
    return [i for i, v in enumerate(values) if v < first - reach or v > third + reach]


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided exact sign-test p for ``wins`` against ``losses`` (ties
    dropped): the chance of a split at least this uneven from fair coins."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


@dataclass(frozen=True)
class Comparison:
    """One metric of one workload over ``n`` pairs."""

    base: tuple[float, float, float]
    change: tuple[float, float, float]
    wins: int
    losses: int
    n: int
    p: float
    verdict: str
    #: ``(pair index, side)`` of every run :func:`beyond_fences` names.
    stalled: tuple[tuple[int, str], ...] = ()


def verdict(metric: "catalog.Metric", base: list[float], change: list[float]) -> Comparison:
    """Compare paired samples: ``base[i]`` and ``change[i]`` ran at one seed.

    ``improved`` when the change reads better in at least :data:`WIN_SHARE`
    of the pairs, the sign test gives p <= :data:`ALPHA`, and the medians
    are apart by more than the parent's interquartile range.  Otherwise, and
    always for an exact metric (bound 0: a move there is behaviour, not a
    gain), the verdict is ``bench/compare.py``'s.  Runs beyond their side's
    fences are listed in ``stalled`` and change nothing else.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need the same, non-zero number of runs on each side")
    sign = 1.0 if metric.better == "higher" else -1.0
    wins = sum(sign * (b - a) > 0 for a, b in zip(base, change))
    losses = sum(sign * (b - a) < 0 for a, b in zip(base, change))
    n = len(base)
    qa, qb = quartiles(base), quartiles(change)
    p = sign_test_p(wins, losses)
    if (
        metric.bound
        and wins >= math.ceil(WIN_SHARE * n)
        and p <= ALPHA
        and sign * (qb[1] - qa[1]) > qa[2] - qa[0]
    ):
        result = IMPROVED
    else:
        result = compare.verdict(metric, base, change)
    fenced = {"parent": beyond_fences(base), "change": beyond_fences(change)}
    stalled = [(i, side) for i in range(n) for side in fenced if i in fenced[side]]
    return Comparison(qa, qb, wins, losses, n, p, result, tuple(stalled))


def next_seeds(used: set[int], count: int) -> list[int]:
    """The ``count`` smallest positive seeds not in ``used``."""
    seeds: list[int] = []
    seed = 1
    while len(seeds) < count:
        if seed not in used:
            seeds.append(seed)
        seed += 1
    return seeds


def read_seeds(text: str) -> set[int]:
    """Seeds listed in a ``seeds_used.txt``: the first word of every line
    that is not blank or a ``#`` comment, a seed or an inclusive ``a-b``."""
    used: set[int] = set()
    for line in text.splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            low, _, high = line.split()[0].partition("-")
            used.update(range(int(low), int(high or low) + 1))
    return used


# -- running the two trees ----------------------------------------------------


def _git(*args: str, root: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True
    ).stdout


def copy_working_tree(target: Path, root: Path = ROOT) -> None:
    """Tracked files plus untracked files git does not ignore, as they are."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                  root=root)
    for name in filter(None, listed.split("\0")):
        source = root / name
        if source.is_file():  # a tracked file deleted in the change is not
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target / name)


def extract_revision(revision: str, target: Path, root: Path = ROOT) -> None:
    """The files of ``revision``, as plain files: no ``.git``, as the copy."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision],
        cwd=root, check=True, capture_output=True,
    ).stdout
    target.mkdir(parents=True, exist_ok=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # Python's safe extraction filter, where this Python has it.
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(target, **safe)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One end-to-end run of ``bench/run.py`` in ``tree``: its result."""
    target = tree.parent / f"{tree.name}.json"
    target.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--out", str(target)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if not target.exists():
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: exit "
                           f"{child.returncode}\n{child.stderr[-2000:]}")
    [result] = json.loads(target.read_text())
    return result


def table(
    rows: list[tuple[str, "catalog.Metric", Comparison]], correct: dict, seeds: list[int]
) -> str:
    """The Markdown table, one row per workload and metric; pair ``i`` ran
    at ``seeds[i]``."""
    out = [
        "| workload | metric | bound | parent median [q1, q3] | change median [q1, q3] "
        "| change / parent | wins | sign p | verdict | runs correct, 0 failed "
        f"| beyond {STALL_IQRS:g}×IQR |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for workload, metric, c in rows:
        ratio = f"{c.change[1] / c.base[1]:.3f}" if c.base[1] else "-"
        bound = "exact" if metric.bound == 0.0 else f"{metric.bound:.0%}"
        stalled = ", ".join(f"seed {seeds[i]} {side}" for i, side in c.stalled) or "-"
        out.append(
            f"| {workload} | {metric.name} ({metric.unit}) | {bound} "
            f"| {c.base[1]:.4g} [{c.base[0]:.4g}, {c.base[2]:.4g}] "
            f"| {c.change[1]:.4g} [{c.change[0]:.4g}, {c.change[2]:.4g}] "
            f"| {ratio} | {c.wins}/{c.n} | {c.p:.3g} | {c.verdict} "
            f"| {correct[workload]} | {stalled} |"
        )
    return "\n".join(out) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--workloads", nargs="+", choices=catalog.ALL,
                        default=list(catalog.ALL))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", help="result directory (default: a new temporary one)")
    args = parser.parse_args(argv)

    out = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="ab-pairs-"))
    if out.resolve().is_relative_to(ROOT / "bench" / "out"):
        parser.error("--out must not be under bench/out/")
    out.mkdir(parents=True, exist_ok=True)
    used = read_seeds(SEEDS_USED.read_text()) if SEEDS_USED.exists() else set()
    seeds = next_seeds(used, args.pairs)
    base_rev = _git("rev-parse", "--short", args.base).strip()

    work = Path(tempfile.mkdtemp(prefix="ab-trees-"))
    trees = {"parent": work / "parent", "change": work / "change"}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    try:
        extract_revision(base_rev, trees["parent"])
        copy_working_tree(trees["change"])
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                           cwd=tree, check=True, capture_output=True)
        with SEEDS_USED.open("a") as seeds_file:
            for seed in seeds:
                seeds_file.write(f"{seed}  # ab_pairs vs {base_rev}: "
                                 f"{' '.join(args.workloads)}\n")
        for workload in args.workloads:
            for index, seed in enumerate(seeds):
                order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(trees[side], workload, seed)
                    runs[side].append(result)
                    print(f"{workload} seed {seed} {side}: " + ", ".join(
                        f"{m.name} {result['metrics'][m.name]['value']:.4g}"
                        for m in catalog.END_TO_END), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Both sides hold their runs in seed order, so run i of one pairs with
    # run i of the other.
    for side, results in runs.items():
        (out / f"{side}.json").write_text(json.dumps(results, indent=1, sort_keys=True))
    loaded = {side: compare.load(out / f"{side}.json") for side in runs}
    rows, correct, healthy = [], {}, True
    for workload in args.workloads:
        good = [
            sum(r["correct"] and not r["failed"] for r in runs[side] if r["workload"] == workload)
            for side in runs
        ]
        healthy &= good == [len(seeds)] * 2
        correct[workload] = f"{good[0]}/{len(seeds)} · {good[1]}/{len(seeds)}"
        base, change = (loaded[side][(workload, 0)] for side in runs)
        for metric in catalog.END_TO_END + catalog.USER_VISIBLE:
            if metric.name in base and metric.name in change:
                comparison = verdict(metric, base[metric.name], change[metric.name])
                healthy &= comparison.verdict != "regress"
                rows.append((workload, metric, comparison))
    heading = (
        f"{args.pairs} alternating pairs per workload, seeds {seeds[0]}–{seeds[-1]}, "
        f"`bench/run.py` at its {catalog.RUN_SECONDS} s; parent {base_rev}, "
        f"change = the checkout's working tree.\n\n"
    )
    document = heading + table(rows, correct, seeds)
    (out / "table.md").write_text(document)
    print(document, end="")
    print(f"\nwrote {out / 'table.md'}, {out / 'parent.json'} and {out / 'change.json'}",
          file=sys.stderr)
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
