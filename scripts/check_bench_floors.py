#!/usr/bin/env python
"""Bench-floor gate: every benchmark document against the floors it carries.

A document (``benchmarks/benchdoc.py`` writes them) is ``bench``, ``env``,
``methodology`` and ``rows``; a row is ``metric``, ``value``, ``unit``,
``clock`` (``wall`` | ``sim`` | ``count``) and ``floor`` (``{"min": x}``,
``{"max": x}``, both for a band, or ``null``).  The floor lives on the row
that measures it and nowhere else, so this reader knows no bench by name.
It fails on a floor that does not hold, a floored value that is missing, a
floor on a ``sim``/``count`` row (a seed-deterministic number is a tier-1
equality, not a benchmark), a document with no floored ``wall`` row, and any
shape it does not know.  Because a ``sim``/``count`` row is seed-deterministic,
it also fails when a freshly written document's such row differs from the
committed one (``git show HEAD:<path>``), so a stale committed number cannot
outlive the code that computes it; a document ``HEAD`` does not hold, or a
checkout without git, is compared with nothing.  Stdlib only: it runs on a
bare checkout.

Usage::

    python scripts/check_bench_floors.py [DOCUMENT_OR_DIRECTORY ...]
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

DOCUMENT_KEYS = {"bench", "env", "methodology", "rows"}
ROW_KEYS = {"metric", "value", "unit", "clock", "floor"}
CLOCKS = {"wall", "sim", "count"}
HOLDS = {"min": lambda value, bound: value >= bound,
         "max": lambda value, bound: value <= bound}


def check(document: object) -> tuple[list[str], list[str]]:
    """``(report lines, problems)`` for one parsed document."""
    if not (
        isinstance(document, dict)
        and set(document) == DOCUMENT_KEYS
        and isinstance(document["rows"], list)
    ):
        return [], ["unknown document shape"]
    lines: list[str] = []
    problems: list[str] = []
    floored_wall = False
    for row in document["rows"]:
        if not (
            isinstance(row, dict) and set(row) == ROW_KEYS and row["clock"] in CLOCKS
        ):
            problems.append(f"unknown row shape: {row!r}")
            continue
        metric, value, floor = row["metric"], row["value"], row["floor"]
        if floor is None:
            continue
        if not (isinstance(floor, dict) and floor and set(floor) <= set(HOLDS)):
            problems.append(f"{metric}: unknown floor shape {floor!r}")
        elif row["clock"] != "wall":
            problems.append(
                f"{metric}: a floor on a {row['clock']!r} row -- a seed-"
                "deterministic number is a tier-1 equality, not a benchmark"
            )
        elif not isinstance(value, (int, float)):
            problems.append(f"{metric}: floored but its value is missing")
        else:
            floored_wall = True
            bounds = ", ".join(f"{key} {floor[key]:g}" for key in sorted(floor))
            ok = all(HOLDS[key](value, bound) for key, bound in floor.items())
            status = "OK" if ok else "REGRESSED"
            lines.append(f"  {metric:<44}{bounds:<22}{value:<12g}{status}")
            if not ok:
                problems.append(f"{metric}: {value:g} does not hold {bounds}")
    if not floored_wall:
        problems.append("no floored wall-clock row holds a value")
    return lines, problems


def committed(path: Path) -> object | None:
    """The document as ``HEAD`` holds it; ``None`` when it holds none."""
    try:
        shown = subprocess.run(
            ["git", "show", f"HEAD:./{path.name}"],
            cwd=path.parent, capture_output=True, check=True, timeout=60,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return json.loads(shown.stdout)


def drift(document: object, before: object) -> list[str]:
    """Each ``sim``/``count`` row of ``before`` that ``document`` does not
    write again, value for value."""
    if not (isinstance(document, dict) and isinstance(before, dict)):
        return []
    fresh = {
        row.get("metric"): row for row in document.get("rows", [])
        if isinstance(row, dict)
    }
    problems = []
    for row in before.get("rows", []):
        if isinstance(row, dict) and row.get("clock") in ("sim", "count"):
            now = fresh.get(row["metric"], {}).get("value")
            if now != row["value"]:
                problems.append(
                    f"{row['metric']}: a {row['clock']!r} row reads {now!r}, "
                    f"committed {row['value']!r}"
                )
    return problems


def main(arguments: list[str]) -> int:
    targets = [Path(argument) for argument in arguments] or [
        Path(__file__).resolve().parent.parent / "results"
    ]
    documents = sorted(
        path
        for target in targets
        for path in (target.glob("BENCH_*.json") if target.is_dir() else [target])
    )
    failures = 0
    for path in documents:
        try:
            document = json.loads(path.read_text())
            lines, problems = check(document)
            problems += drift(document, committed(path))
        except (OSError, json.JSONDecodeError) as exc:
            lines, problems = [], [f"unreadable: {exc}"]
        print("\n".join([path.name, *lines, *(f"  FAIL {p}" for p in problems)]))
        failures += len(problems)
    if failures or not documents:
        print(f"\n{failures} problem(s) across {len(documents)} document(s).")
        return 1
    print(f"\nall floors hold across {len(documents)} benchmark document(s).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
