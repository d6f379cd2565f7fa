"""Smoke test of the benchmark itself: every workload at ~1/50 scale.

    python -m pytest bench/test_smoke.py

Not part of the tier-1 suite (``testpaths`` is ``tests``): it checks the
yardstick, not the program.
"""

from __future__ import annotations

import gzip
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import catalog  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import spans as sp  # noqa: E402

SEED = 2
SECONDS = 10.0


def _smoke(name: str, trace: bool) -> dict:
    return run.run_workload(name, SEED, SECONDS, run.SMOKE_SCALE, trace)


@pytest.fixture(scope="module")
def results() -> dict:
    assert sp.installed_wrappers() == []
    return {
        (name, trace): _smoke(name, trace)
        for name in catalog.ALL for trace in (False, True)
    }


def test_benchmark_json_is_the_catalog_and_fits_the_contract():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == catalog.benchmark_json()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in document["workloads"]]
    assert 2 <= len(names) <= 8
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = document["end_to_end"] + document["per_layer"]
    for metric in metrics:
        assert unit_re.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(name_re.match(name) for name in names)
    setup = {m["name"]: m for m in document["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])
    assert 1 <= document["run_seconds"] <= 60
    assert len(json.dumps(document)) < 64 * 1024


def test_every_named_metric_is_present_finite_and_carries_its_unit(results):
    for (name, trace), result in results.items():
        if trace:
            expected = {m.name: m for m in catalog.TRACED}
            assert set(result["metrics"]) == set(expected)
        else:
            expected = {
                m.name: m for m in catalog.END_TO_END + catalog.USER_VISIBLE
                if name in m.on
            }
            # A latency class with too few samples at 1/50 scale is left out.
            optional = {"hit_p50_us", "hit_p90_us", "miss_p50_ms", "miss_p90_ms"}
            assert set(expected) - optional <= set(result["metrics"]) <= set(expected)
        for metric_name, metric in result["metrics"].items():
            assert math.isfinite(metric["value"]), (name, metric_name)
            assert metric["unit"] == expected[metric_name].unit
        if not trace:
            for metric in catalog.END_TO_END:
                assert result["metrics"][metric.name]["value"] > 0, (name, metric.name)


def test_the_oracle_passes_and_nothing_failed(results):
    for key, result in results.items():
        assert result["correct"], (key, result["mismatches"], result["failures_by_type"])
        assert result["failed"] == 0 and not result["truncated"]
        assert result["attempted"] >= 1
        assert result["metrics"]["failed_frac"]["value"] == 0.0


def test_methodology_and_environment_are_recorded(results):
    for result in results.values():
        for key in ("commit", "python", "numpy", "nproc", "cpu_model",
                    "load1_at_start", "noisy", "seed"):
            assert key in result["env"]
        for key in ("seed", "scale", "clients", "loop", "warmup_share", "samples",
                    "phases"):
            assert key in result["methodology"]


def test_dp_repeats_are_free_and_the_layers_that_must_be_idle_are(results):
    slo_dp = results["slo_dp", True]["metrics"]
    assert slo_dp["privacy.dp_releases"]["value"] > 0
    assert slo_dp["privacy.dp_free_serves"]["value"] > 0
    hot = results["hot_repeat", True]["metrics"]
    assert hot["planner.plans_per_query"]["value"] == 0
    assert hot["share.sharding_pct"]["value"] == 0
    assert results["cold_ring", True]["metrics"]["share.sharding_pct"]["value"] == 0


def test_span_trees_are_well_formed(results):
    for (name, trace), result in results.items():
        if not trace:
            continue
        spans = result["methodology"]["spans"]
        assert spans["problems"] == []
        assert spans["count"] > 0
        if name != "paper_figures":
            # One root per query of the traced pass.
            timed = result["methodology"]["phases"]["traced"]["timed"]
            assert spans["roots"] == timed["ops"]


def test_spans_are_written_out_with_consistent_parents(results):
    for name in catalog.ALL:
        with gzip.open(run.spans_path(name, SEED), "rt") as handle:
            rows = [json.loads(line) for line in handle]
        assert len(rows) == results[name, True]["methodology"]["spans"]["count"]
        for row in rows:
            assert set(row) == {"name", "start", "end", "parent", "query"}
            if row["parent"] is None:
                continue
            parent = rows[row["parent"]]
            assert parent["query"] == row["query"]
            assert parent["start"] - 1e-6 <= row["start"] <= row["end"] <= parent["end"] + 1e-6


def test_check_tree_is_not_vacuous():
    root = [sp.ROOT, 0.0, 1.0, None, 1, "stmt"]
    step = ["service.submit", 0.0, 0.4, root, 1, None]
    assert sp.check_tree([root, step])  # 60 % of the root is unaccounted for
    stray = ["federation.try_cached", 0.3, 1.2, step, 1, None]
    assert any("leaves its parent" in p for p in sp.check_tree([root, step, stray]))
    twin = [sp.ROOT, 0.0, 1.0, None, 1, "stmt"]
    assert any("2 roots" in p for p in sp.check_tree([root, twin]))


def test_wrappers_are_fully_removed_after_a_traced_run(results):
    assert sp.installed_wrappers() == []
    recorder = sp.Recorder()
    with recorder.installed():
        assert {target[0] for target in sp.TARGETS} <= set(sp.installed_wrappers())
    assert sp.installed_wrappers() == []


def test_exact_metrics_and_counts_repeat_exactly(results):
    for name in ("cold_ring", "slo_dp"):
        again = _smoke(name, False)["metrics"]
        first = results[name, False]["metrics"]
        for metric in ("precision", "lop_mean", "sim_s"):
            assert again[metric]["value"] == first[metric]["value"], (name, metric)
        again = _smoke(name, True)["metrics"]
        first = results[name, True]["metrics"]
        for metric in catalog.PER_LAYER:
            if metric.unit == "count":
                assert again[metric.name] == first[metric.name], (name, metric.name)


def test_driver_form_prints_the_contract_line_last():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "hot_repeat", "--seed", "3",
         "--seconds", "10", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m.name for m in catalog.END_TO_END]
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"}


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hot_repeat", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_compare_passes_a_run_against_itself_and_catches_a_regression(results, tmp_path):
    documents = [r for (_name, trace), r in results.items() if not trace]
    same = tmp_path / "a.json"
    same.write_text(json.dumps(documents))
    assert compare.main([str(same), str(same)]) == 0
    slower = json.loads(same.read_text())
    slower[0]["metrics"]["queries_per_s"]["value"] *= 0.7
    worse = tmp_path / "b.json"
    worse.write_text(json.dumps(slower))
    assert compare.main([str(same), str(worse)]) == 1
    assert compare.main([str(worse), str(same)]) == 0
