"""The bench-floor gate (``scripts/check_bench_floors.py``) on doctored documents.

The gate knows no bench by name: a floor lives on the row that measures it.
These tests pin what it must refuse besides a floor that does not hold.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GATE = REPO / "scripts" / "check_bench_floors.py"

GOOD = {
    "bench": "example",
    "env": {"python": "3.11", "cpus": 2},
    "methodology": "two sides interleaved in one process, fastest of each",
    "rows": [
        {"metric": "a_over_b", "value": 1.4, "unit": "x", "clock": "wall",
         "floor": {"min": 1.2}},
        {"metric": "band", "value": 1.0, "unit": "x", "clock": "wall",
         "floor": {"min": 0.95, "max": 1.05}},
        {"metric": "a_seconds", "value": 0.5, "unit": "s", "clock": "wall",
         "floor": None},
        {"metric": "model_speedup", "value": 4.0, "unit": "x", "clock": "sim",
         "floor": None},
        {"metric": "hits", "value": 49, "unit": "hits", "clock": "count",
         "floor": None},
    ],
}


def doctored(*, unfloor_all: bool = False, **changes) -> dict:
    """``GOOD`` with fields of its first row -- or top-level keys -- replaced."""
    document = copy.deepcopy(GOOD)
    for key, value in changes.items():
        target = document["rows"][0] if key in document["rows"][0] else document
        target[key] = value
    if unfloor_all:
        for row in document["rows"]:
            row["floor"] = None
    return document


def run_gate(tmp_path, document) -> subprocess.CompletedProcess:
    path = tmp_path / "BENCH_example.json"
    path.write_text(json.dumps(document))
    return subprocess.run(
        [sys.executable, str(GATE), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_good_document_passes(tmp_path):
    gate = run_gate(tmp_path, GOOD)
    assert gate.returncode == 0, gate.stdout
    assert "a_over_b" in gate.stdout and "OK" in gate.stdout


@pytest.mark.parametrize(
    "document, complaint",
    [
        (doctored(value=1.1), "does not hold"),
        (doctored(clock="sim"), "tier-1 equality"),
        (doctored(clock="count"), "tier-1 equality"),
        (doctored(unfloor_all=True), "no floored wall-clock row"),
        (doctored(value=None), "value is missing"),
        (doctored(floor={"at_least": 1.2}), "unknown floor shape"),
        (doctored(clock="cpu"), "unknown row shape"),
        (doctored(floors={"min_a_over_b": 1.2}), "unknown document shape"),
        ({"speedup": 8.0, "floors": {"min_speedup": 2.0}}, "unknown document shape"),
    ],
    ids=[
        "regressed",
        "floored-sim-row",
        "floored-count-row",
        "no-floored-wall-row",
        "missing-value",
        "unknown-floor-key",
        "unknown-clock",
        "extra-document-key",
        "retired-shape",
    ],
)
def test_doctored_document_fails(tmp_path, document, complaint):
    gate = run_gate(tmp_path, document)
    assert gate.returncode == 1, gate.stdout
    assert complaint in gate.stdout


def test_empty_directory_fails(tmp_path):
    gate = subprocess.run(
        [sys.executable, str(GATE), str(tmp_path)], capture_output=True, timeout=60
    )
    assert gate.returncode == 1


def test_committed_results_hold_their_floors():
    gate = subprocess.run(
        [sys.executable, str(GATE)], capture_output=True, text=True, timeout=60
    )
    assert gate.returncode == 0, gate.stdout


def test_a_count_row_that_moved_from_its_committed_value_fails(tmp_path):
    # A seed-deterministic row a fresh run writes differently from the one
    # HEAD holds is stale on one side: the gate refuses it.
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=gate", "-c", "user.email=gate@example.org",
             *args],
            cwd=tmp_path, check=True, capture_output=True, timeout=60,
        )

    git("init", "-q")
    run_gate(tmp_path, GOOD)
    git("add", "BENCH_example.json")
    git("commit", "-q", "-m", "committed rows")
    assert run_gate(tmp_path, GOOD).returncode == 0
    moved = copy.deepcopy(GOOD)
    moved["rows"][4]["value"] = 50
    gate = run_gate(tmp_path, moved)
    assert gate.returncode == 1, gate.stdout
    assert "hits: a 'count' row reads 50, committed 49" in gate.stdout
