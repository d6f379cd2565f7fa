"""The one document shape every bench in this directory writes.

``results/BENCH_<bench>.json``::

    {"bench": ..., "env": {...}, "methodology": "...",
     "rows": [{"metric": ..., "value": ..., "unit": ...,
               "clock": "wall" | "sim" | "count",
               "floor": {"min": x} | {"max": x} | {"min": x, "max": y} | null}]}

A floor is stated once, on the row that measures it.  :func:`emit` writes
the document and then runs ``scripts/check_bench_floors.py`` on it -- the
gate CI runs over ``results/`` -- so a bench fails exactly when the gate
would, and neither the bench nor the gate repeats the number.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

REPO = Path(__file__).resolve().parent.parent
GATE = REPO / "scripts" / "check_bench_floors.py"


def row(
    metric: str,
    value: float,
    unit: str,
    *,
    clock: str = "wall",
    at_least: "float | None" = None,
    at_most: "float | None" = None,
) -> dict:
    """One measured number; ``at_least``/``at_most`` are its floor, if any.

    ``clock`` says what kind of number it is: ``wall`` (measured time or a
    ratio of measured times), ``sim`` (the cost model's simulated seconds --
    seed-deterministic, never floored) or ``count`` (an exact tally).
    """
    floor = {
        key: bound
        for key, bound in (("min", at_least), ("max", at_most))
        if bound is not None
    }
    if isinstance(value, float):
        value = float(f"{value:.6g}")
    return {
        "metric": metric,
        "value": value,
        "unit": unit,
        "clock": clock,
        "floor": floor or None,
    }


def emit(bench: str, methodology: str, rows: "list[dict]") -> None:
    """Write ``results/BENCH_<bench>.json`` and hold it to its own floors."""
    path = REPO / "results" / f"BENCH_{bench}.json"
    document = {
        "bench": bench,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "methodology": methodology,
        "rows": rows,
    }
    path.write_text(json.dumps(document, indent=2) + "\n")
    gate = subprocess.run(
        [sys.executable, str(GATE), str(path)], capture_output=True, text=True
    )
    print("\n" + gate.stdout)
    assert gate.returncode == 0, f"{path.name} fails its floors:\n{gate.stdout}"
