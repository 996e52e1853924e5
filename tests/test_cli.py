"""Tests for the repro-eda command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_circuits(self, capsys):
        assert main(["circuits"]) == 0
        out = capsys.readouterr().out
        assert "s27" in out and "real" in out

    def test_info(self, capsys):
        assert main(["info", "s27"]) == 0
        out = capsys.readouterr().out
        assert "paths" in out and "tpg" in out

    def test_generate_unconstrained(self, capsys):
        assert main(
            ["generate", "s27", "--length", "60", "--time-limit", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "FC" in out and "Ntests" in out

    def test_generate_with_driver(self, capsys):
        assert main(
            [
                "generate", "s298", "--driver", "s953",
                "--length", "60", "--time-limit", "5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "SWA_func" in out

    def test_tpdf(self, capsys):
        assert main(["tpdf", "s27", "--max-faults", "40", "--time-limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "detected" in out and "undetectable" in out

    def test_select_paths(self, capsys):
        assert main(["select-paths", "s298", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "Target_PDF" in out

    def test_table_unknown(self, capsys):
        assert main(["table", "9.9"]) == 2

    def test_table_4_2(self, capsys):
        assert main(["table", "4.2"]) == 0
        out = capsys.readouterr().out
        assert "NSV" in out

    def test_table_jobs_flag(self):
        args = build_parser().parse_args(["table", "4.3", "--jobs", "4"])
        assert args.jobs == 4
        assert build_parser().parse_args(["table", "4.3"]).jobs == 1

    def test_table_quiet_and_stats_flags(self):
        args = build_parser().parse_args(
            ["table", "4.3", "--quiet", "--stats", "--trace", "t.jsonl"]
        )
        assert args.quiet and args.stats and args.trace == "t.jsonl"

    def test_table_resilience_flags(self):
        args = build_parser().parse_args(
            [
                "table", "4.3", "--timeout", "30", "--retries", "1",
                "--checkpoint", "ck.jsonl", "--resume",
            ]
        )
        assert args.timeout == 30.0
        assert args.retries == 1
        assert args.checkpoint == "ck.jsonl"
        assert args.resume
        defaults = build_parser().parse_args(["table", "4.3"])
        assert defaults.timeout is None and defaults.retries is None
        assert defaults.checkpoint is None and not defaults.resume

    def test_table_resume_requires_checkpoint(self, capsys):
        assert main(["table", "4.3", "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--jobs", "2"]], ids=["inline", "jobs2"])
    def test_malformed_fault_spec_exits_2_before_any_row(
        self, extra, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_FAULT", "runner.task:s27:bogus")
        assert main(["table", "4.3", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad fault mode 'bogus'")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table", "4.3", "--jobs", "0"], "jobs must be a positive worker count, got 0"),
            (["table", "4.3", "--jobs", "-7"], "jobs must be a positive worker count, got -7"),
            (["table", "4.3", "--shards", "0"], "shards must be a positive shard count, got 0"),
            (
                ["generate", "s27", "--shards", "-1"],
                "shards must be a positive shard count, got -1",
            ),
        ],
        ids=["table-jobs0", "table-jobs-7", "table-shards0", "generate-shards-1"],
    )
    def test_bad_dispatch_count_exits_2(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestObservabilityCommands:
    @pytest.fixture(autouse=True)
    def clean_obs(self):
        from repro import obs

        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def test_generate_stats_report(self, capsys):
        assert main(
            ["generate", "s27", "--length", "40", "--time-limit", "5", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "per-phase time breakdown" in out
        assert "generation (Fig 4.9 construction)" in out
        assert "seeds_evaluated" in out and "seeds_accepted" in out
        assert "compiled circuit IR" in out and "cache_" in out
        assert "fault grading (PPSFP)" in out

    def test_generate_trace_then_stats(self, tmp_path, capsys):
        trace = tmp_path / "gen.jsonl"
        assert main(
            [
                "generate", "s27", "--length", "40", "--time-limit", "5",
                "--trace", str(trace),
            ]
        ) == 0
        err = capsys.readouterr().err
        assert "trace span(s)" in err
        assert trace.exists()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "repro-trace-v1" in out
        assert "gen.run" in out

    def test_stats_rejects_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["stats", str(empty)]) == 2
        assert "not a repro-trace-v1 trace" in capsys.readouterr().err

    def test_stats_rejects_missing_file(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.jsonl")]) == 2
        assert "no trace file" in capsys.readouterr().err

    def test_stats_rejects_wrong_schema(self, tmp_path, capsys):
        trace = tmp_path / "other.jsonl"
        trace.write_text('{"schema": "other-v9"}\n')
        assert main(["stats", str(trace)]) == 2
        assert "repro-trace-v1" in capsys.readouterr().err

    def test_stats_rejects_binary_garbage(self, tmp_path, capsys):
        trace = tmp_path / "garbage.jsonl"
        trace.write_bytes(b"\x00\x01\x02 not json at all")
        assert main(["stats", str(trace)]) == 2

    def test_table_quiet_suppresses_progress(self, capsys):
        assert main(["table", "4.2", "--jobs", "2", "--quiet"]) == 0
        captured = capsys.readouterr()
        assert "done" not in captured.err
