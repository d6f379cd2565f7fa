#!/usr/bin/env python3
"""Call census: which functions under ``src/repro`` do the front ends enter?

The static census (``tests/test_reachability.py``) answers which *modules*
a front end imports.  This one answers which *functions* it calls: it runs
the front ends under a profile hook and writes every ``def`` in
``src/repro`` that none of them entered to ``results/call_census.txt``, one
sorted ``module:qualname`` line each, and the same list grouped by module,
with totals, to stderr.  ``tests/test_call_census.py`` gates the committed
file: every listed def must still exist and be declared or kept by a rule
(DESIGN.md 4k); ``make census`` regenerates it.

How: a ``sitecustomize.py`` written into a temporary directory installs
``sys.setprofile`` and ``threading.setprofile``, records every code object
entered, and at exit dumps the ones under ``src/repro`` to one file per
process, and wraps ``os._exit`` to dump first: a forked child — a shard
worker, a trial-pool worker — ends that way and skips ``atexit``, and it
inherits the hook with the rest of its parent's image.  Every command runs
with ``PYTHONPATH=<tmp>:src`` from inside the temporary directory, so
subprocesses — ``bench/run.py``'s per-workload children, the scripts the CI
smoke job runs — load the hook too and every relative default path lands
there.  ``bench/run.py`` writes beside itself (``bench/out``) and
measures the ``src`` next to it, so it runs from a copy of ``bench/`` in the
temporary directory with ``src`` linked beside the copy; the hook matches
files by their real path, so code reached through that link counts.  What
runs:

* the CI ``smoke`` job's commands (``.github/workflows/ci.yml``) at small
  sizes, except its re-run of ``tests/sharding``: tests are not a front end;
* ``repro-topk all --trials 20``: at least ``VECTOR_CROSSOVER`` trials, so
  the figures' points reach the vectorized engine (at 5 it looks dead);
* every other ``repro-topk`` subcommand, at a small size, and the paths
  their existing flags select: ``validate`` over every figure, one
  ``--jobs 2`` figure run large enough for the pool gate to admit it (on a
  host with at least two cores; on one core it runs serial-gated and the
  pool's defs read as never entered), a DP statement served twice one batch
  apart, a sharded ``serve``, a rate-limited ``serve`` that sheds, and a
  k = 1 naive query's privacy report;
* ``bench/run.py --smoke``, as one ``--workload W --trace 0|1`` child per
  workload and trace setting, the children ``--smoke`` itself runs.

The subcommands are read from ``python -m repro.cli --help``, not kept by
hand: one that no command runs fails the census, by name, before anything
runs.  A process killed by a signal (the chaos sweep's SIGKILLed victim)
records nothing; the others cover what it ran.  Stdlib only; it
imports nothing from ``repro``, writes nothing under the repository but
``results/call_census.txt``, and takes about a minute and a half on two
vCPUs.  Every command is seeded, so two runs on one host write the same
bytes.  Run from anywhere::

    python scripts/call_census.py        # or: make census
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
#: The committed list ``tests/test_call_census.py`` gates.
OUTPUT = ROOT / "results" / "call_census.txt"

#: The hook, formatted with the package root and the record directory.
HOOK = '''\
import atexit, json, os, sys, threading

_ROOT = {root!r} + os.sep
_RECORDS = {records!r}
_entered = {{}}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _entered[id(code)] = code


def _dump():
    sys.setprofile(None)
    rows = sorted({{
        (os.path.realpath(code.co_filename), code.co_firstlineno)
        for code in _entered.values()
    }})
    rows = [row for row in rows if row[0].startswith(_ROOT)]
    path = os.path.join(_RECORDS, f"entered-{{os.getpid()}}.json")
    with open(path, "w") as handle:
        json.dump(rows, handle)


def _exit(code, _os_exit=os._exit):
    _dump()
    _os_exit(code)


atexit.register(_dump)
os._exit = _exit
sys.setprofile(_profile)
threading.setprofile(_profile)
'''

STATEMENTS = (
    "SELECT TOP 5 value FROM data WITH SLO(deadline=5.0)",
    "SELECT BOTTOM 3 value FROM data WITH SLO(max_lop=0.5)",
    "SELECT MAX(value) FROM data WITH SLO(deadline=0.05, epsilon=0.01)",
    "SELECT MIN(value) FROM data",
    "SELECT SUM(value) FROM data WITH SLO(deadline=1.0)",
    "SELECT AVG(value) FROM data WITH SLO(deadline=1.0)",
    "SELECT COUNT(value) FROM data",
)
#: Served twice one batch apart, so the repeat is the gateway's DP fast path.
DP_MAX = "SELECT MAX(value) FROM data WITH SLO(dp_epsilon=1.0)"
WORKLOADS = (
    "hot_repeat", "cold_ring", "scan_write", "sharded_proc", "slo_dp", "paper_figures",
)


def commands(bench_dir: Path) -> list[tuple[list[str], str]]:
    """``(argv, expected exit)`` of every run; ``"0"``, ``"2"`` or ``"nonzero"``.

    ``bench_dir`` is the copy of ``bench/`` the benchmark children run from.
    """
    cli = [sys.executable, "-m", "repro.cli"]
    script = lambda name: [sys.executable, str(ROOT / "scripts" / name)]  # noqa: E731
    runs = [
        (cli + ["trace", "figure", "fig6", "--trials", "10", "--out", "trace.json",
                "--jsonl", "fig6.jsonl", "--chrome", "fig6.chrome.json"], "0"),
        (cli + ["trace", "serve", "--queries", "12", "--seed", "3", "--out", "trace.json",
                "--jsonl", "serve.jsonl", "--chrome", "serve.chrome.json",
                "--prom", "serve.prom"], "0"),
        (script("check_trace.py") + ["--chrome", "fig6.chrome.json", "--jsonl",
                "fig6.jsonl", "--expect-connected"], "0"),
        (script("check_trace.py") + ["--chrome", "serve.chrome.json", "--jsonl",
                "serve.jsonl", "--expect-connected"], "0"),
        (cli + ["metrics", "--queries", "24", "--seed", "1", "--prom", "metrics.prom"],
         "0"),
        (cli + ["bench-serve", "--queries", "40", "--repeat-fraction", "0.3", "--seed",
                "3", "--strict", "--jsonl", "service.jsonl"], "0"),
        (cli + ["plan", *STATEMENTS, "--parties", "5", "--values-per-node", "20",
                "--seed", "0", "--execute", "--max-drift", "0.2", "--json",
                "planner.json"], "0"),
        (cli + ["plan", "SELECT TOP 5 value FROM data WITH SLO(deadline=5.0, max_lop=0.9)"],
         "0"),
        (cli + ["plan", "SELECT TOP 3 value FROM data WITH SLO(deadline=0.004)"],
         "nonzero"),
        (cli + ["plan", "SELECT TOP 5 value FROM data WITH SLO(deadline=5.0, "
                "backend=session)"], "2"),
        (cli + ["tpch", "--parties", "3", "--rows", "20000", "--k", "5", "--timing"], "0"),
        (script("size_chunk_encoding.py") + ["--rows", "20000", "--repeats", "1"], "0"),
        (script("gateway_smoke.py") + ["--queries", "60", "--shards", "3", "--out",
                                        "gateway.json"], "0"),
        (script("chaos_sweep.py") + ["--drops", "0.0", "--trials", "1", "--out-dir",
                                      "chaos"], "0"),
        (cli + ["figure", "ext-dp", "--trials", "20", "--seed", "9", "--no-plot",
                "--csv", "ext-dp.csv"], "0"),
        (script("check_dp_accounting.py"), "0"),
        (cli + ["all", "--trials", "20", "--out", "all"], "0"),
        (cli + ["list"], "0"),
        (cli + ["figure", "fig6", "--trials", "5", "--svg", "svg", "--timing",
                "--jobs", "1"], "0"),
        (cli + ["figure", "fig7", "--trials", "4000", "--jobs", "2", "--no-plot"], "0"),
        (cli + ["query", "--k", "1", "--protocol", "naive", "--privacy-report"], "0"),
        (cli + ["trace", "query", "--seed", "5", "--out", "query.json"], "0"),
        (cli + ["analyze", "query.json"], "0"),
        (cli + ["report", "--trials", "5", "--out", "report.md"], "0"),
        (cli + ["validate", "--trials", "20"], "0"),
        (cli + ["serve", "SELECT TOP 3 value FROM data", "SELECT MAX(value) FROM data"],
         "0"),
        (cli + ["serve", "--max-batch", "1", DP_MAX, DP_MAX], "0"),
        (cli + ["serve", "--shards", "3", "--max-batch", "1",
                "SELECT TOP 3 value FROM t00", "SELECT TOP 3 value FROM t00",
                "SELECT SUM(value) FROM part00"], "0"),
        (cli + ["serve", "--rate-limit", "0.5", "--rate-burst", "1",
                "SELECT TOP 3 value FROM data", "SELECT MIN(value) FROM data"],
         "nonzero"),
        (cli + ["metrics", "--queries", "12", "--seed", "2", "--json", "metrics.json"],
         "0"),
        (cli + ["tpch", "--parties", "3", "--rows", "20000", "--engine", "row"], "0"),
    ]
    bench = [sys.executable, str(bench_dir / "run.py")]
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            runs.append((bench + ["--workload", workload, "--smoke", "--trace", trace],
                         "0"))
    return runs


def unrun_subcommands(runs: list[tuple[list[str], str]], env: dict) -> list[str]:
    """The ``repro-topk`` subcommands ``--help`` lists that no run starts."""
    listing = subprocess.run([sys.executable, "-m", "repro.cli", "--help"], env=env,
                             capture_output=True, text=True, check=True).stdout
    subcommands = re.search(r"\{([\w,-]+)\}", listing).group(1).split(",")
    run = {argv[3] for argv, _ in runs if argv[1:3] == ["-m", "repro.cli"]}
    return [name for name in subcommands if name not in run]


def _exit_ok(code: int, expected: str) -> bool:
    if expected == "nonzero":
        return code != 0
    return code == int(expected)


def dotted(module: str) -> str:
    """``repro/a/b.py`` -> ``repro.a.b`` (a package's ``__init__`` is the package)."""
    parts = Path(module).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def defs_by_module() -> dict[str, dict[int, str]]:
    """``{module path: {first line: qualname}}`` of every ``def`` in the tree.

    The first line is what ``co_firstlineno`` reports: the first
    decorator's line for a decorated function, else the ``def`` line.
    """
    found: dict[str, dict[int, str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        defs: dict[int, str] = {}

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    defs[first] = prefix + child.name
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
        found[str(path.relative_to(SRC))] = defs
    return found


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="call-census-") as tmp:
        hook_dir, records = Path(tmp) / "hook", Path(tmp) / "records"
        hook_dir.mkdir()
        records.mkdir()
        (hook_dir / "sitecustomize.py").write_text(
            HOOK.format(root=str(PACKAGE), records=str(records))
        )
        bench_dir = Path(tmp) / "bench"
        shutil.copytree(ROOT / "bench", bench_dir,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        (Path(tmp) / "src").symlink_to(SRC, target_is_directory=True)
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(hook_dir), str(SRC)]),
            "PYTHONDONTWRITEBYTECODE": "1",
        }
        runs = commands(bench_dir)
        missing = unrun_subcommands(runs, env)
        if missing:
            print(f"call_census: no command runs subcommand(s) {', '.join(missing)}",
                  file=sys.stderr)
            return 1
        for index, (argv, expected) in enumerate(runs, 1):
            shown = " ".join(Path(a).name if a.startswith((str(ROOT), tmp)) else a
                             for a in argv[1:])
            start = time.perf_counter()
            done = subprocess.run(argv, cwd=tmp, env=env, stdin=subprocess.DEVNULL,
                                  capture_output=True, text=True)
            seconds = time.perf_counter() - start
            print(f"[{index:2}/{len(runs)}] {seconds:6.1f} s  exit {done.returncode}  "
                  f"{shown[:90]}", file=sys.stderr)
            if not _exit_ok(done.returncode, expected):
                print(done.stdout[-4000:], done.stderr[-4000:], sep="\n", file=sys.stderr)
                print(f"call_census: expected exit {expected}", file=sys.stderr)
                return 1
        entered: set[tuple[str, int]] = set()
        for record in records.glob("entered-*.json"):
            entered.update(
                (str(Path(name).relative_to(SRC)), line)
                for name, line in json.loads(record.read_text())
            )
        processes = len(list(records.glob("entered-*.json")))

    total = never = 0
    silent_modules = []
    listed = set()
    for module, defs in defs_by_module().items():
        missed = sorted(line for line in defs if (module, line) not in entered)
        total += len(defs)
        never += len(missed)
        if defs and len(missed) == len(defs):
            silent_modules.append(module)
        if missed:
            print(f"{module}  ({len(missed)} of {len(defs)} defs never entered)",
                  file=sys.stderr)
            for line in missed:
                print(f"    {line:5}  {defs[line]}", file=sys.stderr)
                listed.add(f"{dotted(module)}:{defs[line]}")
    OUTPUT.write_text("".join(f"{line}\n" for line in sorted(listed)))
    print(file=sys.stderr)
    print(f"{len(runs)} commands, {processes} processes recorded", file=sys.stderr)
    print(f"{never} of {total} defs in src/repro never entered "
          f"({total - never} entered)", file=sys.stderr)
    print(f"modules with no def entered: {len(silent_modules)}", file=sys.stderr)
    for module in silent_modules:
        print(f"    {module}", file=sys.stderr)
    print(f"wrote {OUTPUT.relative_to(ROOT)} ({len(listed)} lines)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
