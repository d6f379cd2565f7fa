"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_requires_known_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "fig12" in out and "table1" in out

    def test_table1(self, capsys):
        assert main(["figure", "table1"]) == 0
        assert "dampening factor" in capsys.readouterr().out

    def test_analytic_figure_with_plot(self, capsys):
        assert main(["figure", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "fig3a" in out and "fig3b" in out
        assert "p0=0.25" in out

    def test_empirical_figure_no_plot(self, capsys):
        assert main(["figure", "fig7", "--trials", "3", "--no-plot"]) == 0
        out = capsys.readouterr().out
        assert "fig7a" in out
        assert "x:" not in out  # plots suppressed

    def test_figure_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "fig3.csv"
        assert main(["figure", "fig3", "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        assert "wrote" in capsys.readouterr().out

    def test_figure_parallel_with_timing(self, capsys):
        assert main(
            ["figure", "fig7", "--trials", "4", "--no-plot",
             "--jobs", "2", "--timing"]
        ) == 0
        out = capsys.readouterr().out
        assert "fig7a" in out
        assert "cost:" in out  # per-panel timing embedded in metadata
        assert "sweep point" in out  # the --timing telemetry table
        # Four tiny trials can never amortize pool startup: the runner's
        # gate downgrades the explicit --jobs 2 to the serial engine and
        # says so in the telemetry table.
        assert "serial-gated" in out

    def test_figure_serial_matches_parallel_output(self, capsys):
        assert main(["figure", "fig7", "--trials", "4", "--no-plot"]) == 0
        serial_out = capsys.readouterr().out
        assert main(
            ["figure", "fig7", "--trials", "4", "--no-plot", "--jobs", "3"]
        ) == 0
        parallel_out = capsys.readouterr().out
        # Determinism guarantee: --jobs changes only the wall clock.
        assert parallel_out == serial_out

    def test_timing_on_analytic_figure_reports_no_trials(self, capsys):
        assert main(["figure", "fig3", "--no-plot", "--timing"]) == 0
        assert "no trial telemetry" in capsys.readouterr().out

    def test_validate_with_jobs_and_timing(self, capsys):
        assert main(
            ["validate", "--only", "fig6", "--trials", "20",
             "--jobs", "2", "--timing"]
        ) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "sweep point" in out

    def test_query_command(self, capsys):
        assert main(
            ["query", "--nodes", "5", "--k", "2", "--seed", "3",
             "--values-per-node", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "precision" in out and "average LoP" in out

    def test_tpch_reports_the_stored_footprint(self, capsys):
        assert main(["tpch", "--parties", "3", "--rows", "500", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert (
            "storage: 0.0 MB (15 B/row: l_orderkey int32, l_partkey int32, "
            "l_quantity int8, l_extendedprice int32/100, l_discount int8/100, "
            "l_tax int8/100)"
        ) in out
        # The row store cannot say how many bytes it holds: no line.
        assert main(["tpch", "--parties", "3", "--rows", "50", "--engine", "row"]) == 0
        assert "storage:" not in capsys.readouterr().out

    def test_query_rejects_unknown_protocol(self, capsys):
        assert main(["query", "--protocol", "magic"]) == 2

    def test_query_naive_protocol(self, capsys):
        assert main(["query", "--nodes", "4", "--protocol", "naive", "--seed", "1"]) == 0
        assert "naive" in capsys.readouterr().out

    def test_query_privacy_report(self, capsys):
        assert main(
            ["query", "--nodes", "4", "--k", "1", "--seed", "2", "--privacy-report"]
        ) == 0
        out = capsys.readouterr().out
        assert "privacy report" in out
        assert "spectrum" in out

    def test_trace_and_analyze_round_trip(self, tmp_path, capsys):
        trace_path = tmp_path / "run.json"
        assert main(
            ["trace", "--nodes", "5", "--k", "2", "--seed", "9", "--out", str(trace_path)]
        ) == 0
        assert trace_path.exists()
        capsys.readouterr()
        assert main(["analyze", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "privacy report" in out
        assert "precision         : 1.000" in out

    def test_analyze_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/trace.json"]) == 2
        assert "error:" in capsys.readouterr().err


class TestServeCommands:
    def test_serve_statements_from_argv(self, capsys):
        assert main(
            [
                "serve",
                "SELECT TOP 3 value FROM data",
                "SELECT TOP 3 value FROM data",
                "--seed",
                "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("OK    ") == 2
        assert "(cached)" in out
        assert "cache hit rate" in out

    def test_serve_statements_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("# comment\nSELECT MAX(value) FROM data\n\n"),
        )
        assert main(["serve", "--seed", "4"]) == 0
        assert "SELECT MAX(value) FROM data" in capsys.readouterr().out

    def test_serve_empty_stdin_is_an_error(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["serve"]) == 2
        assert "no statements" in capsys.readouterr().err

    def test_serve_reports_bad_statement_typed(self, capsys):
        assert main(["serve", "SELECT NONSENSE"]) == 1
        out = capsys.readouterr().out
        assert "ERROR" in out and "SqlError" in out

    def test_bench_serve_strict_passes_within_capacity(self, capsys, tmp_path):
        jsonl = tmp_path / "serve.jsonl"
        assert main(
            [
                "bench-serve",
                "--queries",
                "25",
                "--seed",
                "3",
                "--strict",
                "--jsonl",
                str(jsonl),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "strict checks passed" in out
        assert jsonl.exists()
        import json

        record = json.loads(jsonl.read_text().splitlines()[0])
        assert record["shed"] == 0
        assert record["cache_fast_hits"] > 0

    def test_bench_serve_strict_fails_under_overload(self, capsys):
        assert main(
            [
                "bench-serve",
                "--queries",
                "25",
                "--seed",
                "3",
                "--max-queue",
                "2",
                "--max-batch",
                "1",
                "--strict",
            ]
        ) == 1
        err = capsys.readouterr().err
        assert "STRICT FAIL" in err and "shed" in err


class TestPlanCommand:
    PLANNED = "SELECT MAX(value) FROM data WITH SLO(deadline=5.0)"

    def test_plan_execute_audits_predictions_and_writes_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "plans.json"
        argv = ["plan", self.PLANNED, "SELECT COUNT(value) FROM data", self.PLANNED]
        assert main([*argv, "--execute", "--max-drift", "0.2", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        # A plan states what the planner knows; the executor is not in it.
        assert "protocol          : probabilistic" in out
        assert "backend" not in out
        # The repeat was served from cache: one ranking run + one secure sum.
        assert "executed 2 planned statement(s)" in out
        assert "over 1 single-extraction run(s)" in out
        assert "drift checks passed" in out
        document = json.loads(path.read_text())
        assert len(document["plans"]) == 3
        assert all("backend" not in plan for plan in document["plans"])
        assert document["accuracy"]["recorded"] == 2

    def test_a_retired_slo_key_exits_2(self, capsys):
        retired = "SELECT MAX(value) FROM data WITH SLO(deadline=5.0, backend=session)"
        assert main(["plan", retired]) == 2
        assert "unknown SLO key 'backend'" in capsys.readouterr().err

    def test_the_explain_flag_is_gone(self, capsys):
        # Explaining was always what `plan` did; the flag changed nothing.
        with pytest.raises(SystemExit) as exit_info:
            main(["plan", self.PLANNED, "--explain"])
        assert exit_info.value.code == 2
        assert "--explain" in capsys.readouterr().err
