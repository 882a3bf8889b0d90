"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_parses_machine(self):
        args = build_parser().parse_args(
            ["run", "fig09", "--machine", "power8"]
        )
        assert args.experiment == "fig09"
        assert args.machine == "power8"

    def test_elastic_defaults(self):
        args = build_parser().parse_args(["elastic"])
        assert args.operators == 100
        assert args.payload == 1024
        assert args.machine == "xeon"

    def test_trace_parses(self):
        args = build_parser().parse_args(
            ["trace", "fig06", "--format", "jsonl"]
        )
        assert args.command == "trace"
        assert args.experiment == "fig06"
        assert args.format == "jsonl"


class TestCommands:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out
        assert "fig15a" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_elastic_small_run(self, capsys):
        code = main(
            [
                "elastic",
                "--operators", "20",
                "--payload", "256",
                "--machine", "laptop",
                "--cores", "4",
                "--duration", "800",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "converged throughput" in out
        assert "scheduler threads" in out

    def test_sweep_small(self, capsys):
        code = main(
            [
                "sweep",
                "--operators", "20",
                "--machine", "laptop",
                "--cores", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fraction dynamic" in out

    def test_run_fig12(self, capsys):
        code = main(["run", "fig12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bushy" in out

    def test_run_fig15a(self, capsys):
        code = main(["run", "fig15a"])
        assert code == 0
        out = capsys.readouterr().out
        assert "VWAP" in out

    def test_run_fig13(self, capsys):
        code = main(["run", "fig13"])
        assert code == 0
        out = capsys.readouterr().out
        assert "threads" in out
        assert "re-settle" in out

    def test_trace_unknown_experiment(self, capsys):
        assert main(["trace", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_trace_jsonl_to_file(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "trace.jsonl"
        code = main(
            [
                "trace", "fig01",
                "--cores", "8",
                "--duration", "400",
                "--format", "jsonl",
                "--output", str(out_file),
            ]
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in out_file.read_text().splitlines()
        ]
        kinds = {r["kind"] for r in records}
        assert "decision" in kinds
        assert "observation" in kinds

    def test_trace_table_to_stdout(self, capsys):
        code = main(
            ["trace", "fig01", "--cores", "8", "--duration", "400"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rule" in out
        assert "F7-INIT" in out

    def test_latency_profile(self, capsys):
        code = main(
            [
                "latency",
                "--operators", "20",
                "--machine", "laptop",
                "--cores", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "latency ms" in out
        assert "100% dynamic" in out


class TestScenarioCommands:
    def test_scenarios_list_prints_zoo(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "pipeline-smoke" in out
        assert "onoff-burst-overflow" in out
        assert "saturated" in out

    def test_scenarios_validate_by_name(self, capsys):
        assert main(["scenarios", "validate", "pipeline-smoke"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_scenarios_validate_reports_offending_field(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "name: bad\n"
            "workload:\n"
            "  arrivals:\n"
            "    kind: poisson\n"
            "    rate: -2.0\n"
        )
        assert main(["scenarios", "validate", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "workload.arrivals.rate" in captured.out
        assert "must be > 0" in captured.out

    def test_scenarios_list_empty_dir_fails(self, tmp_path, capsys):
        assert main(["scenarios", "list", "--dir", str(tmp_path)]) == 1
        assert "no scenario configs" in capsys.readouterr().err

    def test_bench_runs_named_scenario(self, capsys):
        code = main(
            [
                "bench",
                "--scenario", "pipeline-smoke",
                "--backend", "perfmodel",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pipeline-smoke" in out
        assert "perfmodel" in out
        assert "converged T/s" in out

    def test_bench_unknown_scenario(self, capsys):
        assert main(["bench", "--scenario", "no-such"]) == 2
        err = capsys.readouterr().err
        assert "no-such" in err
        assert "pipeline-smoke" in err


class TestNumericValidation:
    """Bad numeric options are usage errors (exit 2), never tracebacks."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "fig01", "--duration", "0"],
            ["trace", "fig01", "--duration", "-5"],
            ["trace", "fig01", "--cores", "0"],
            ["elastic", "--operators", "0"],
            ["elastic", "--payload", "-1"],
            ["elastic", "--cost", "0"],
            ["elastic", "--cost", "nan"],
            ["sweep", "--cores", "-4"],
            ["latency", "--duration", "inf"],
            ["elastic", "--operators", "2.5"],
            ["bench", "--scenario", "pipeline-smoke", "--jobs", "-1"],
            ["bench", "--scenario", "pipeline-smoke", "--jobs", "0"],
        ],
    )
    def test_rejected_with_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [ln for ln in err.splitlines() if "error:" in ln]
        assert f"argument {argv[-2]}" in line

    @pytest.mark.parametrize(
        "output", ["missing-dir/trace.jsonl", "."], ids=["no-dir", "dir"]
    )
    def test_trace_output_unwritable(
        self, output, tmp_path, monkeypatch, capsys
    ):
        # Rejected at parse time: the replay never starts.
        import repro.obs.trace_cli as trace_cli

        def no_replay(*_args):
            raise AssertionError("replay ran before --output was checked")

        monkeypatch.setattr(trace_cli, "replay", no_replay)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["trace", "fig01", "--format", "jsonl", "--output", output])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [ln for ln in err.splitlines() if "error:" in ln]
        assert "argument --output" in line

    def test_positive_values_parse(self):
        args = build_parser().parse_args(
            ["trace", "fig01", "--duration", "0.5", "--cores", "3"]
        )
        assert args.duration == 0.5
        assert args.cores == 3
        args = build_parser().parse_args(
            ["bench", "--scenario", "pipeline-smoke", "--jobs", "2"]
        )
        assert args.jobs == 2
