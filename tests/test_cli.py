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

    def test_generate_buffers_driver_is_unconstrained(self, capsys):
        """``--driver buffers`` is Table 4.3's buffers row: no SWA bound."""
        assert main(["generate", "s27", "--length", "40"]) == 0
        plain = capsys.readouterr().out
        assert main(["generate", "s27", "--length", "40", "--driver", "buffers"]) == 0
        assert capsys.readouterr().out == plain

    def test_tpdf(self, capsys):
        assert main(["tpdf", "s27", "--max-faults", "40"]) == 0
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
            ["table", "4.3", "--timeout", "30", "--retries", "1"]
        )
        assert args.timeout == 30.0
        assert args.retries == 1
        defaults = build_parser().parse_args(["table", "4.3"])
        assert defaults.timeout is None and defaults.retries is None

    def test_overrun_rows_fail_alike_at_any_jobs(self, capsys):
        """A ``--timeout`` no row can meet fails every row; none prints shorter."""
        outs = []
        for jobs in ("1", "2"):
            argv = ["table", "4.3", "--timeout", "0.01", "--retries", "0", "--quiet"]
            assert main([*argv, "--jobs", jobs]) == 1
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].count("FAILED: timeout after 1 try") == 2

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
            (
                ["table", "4.3", "--timeout", "-1"],
                "timeout must be a positive number of seconds, got -1.0",
            ),
            (
                ["table", "4.3", "--timeout", "0"],
                "timeout must be a positive number of seconds, got 0.0",
            ),
            (
                ["table", "4.3", "--retries", "-1"],
                "retries must be a non-negative retry count, got -1",
            ),
            (
                ["generate", "s27", "--length", "0"],
                "length must be a positive segment length, got 0",
            ),
            (
                ["generate", "s27", "--length", "-5"],
                "length must be a positive segment length, got -5",
            ),
            (
                ["generate", "s27", "--time-limit", "-1"],
                "time-limit must be a positive number of seconds, got -1.0",
            ),
            (
                ["tpdf", "s27", "--max-faults", "-3"],
                "max-faults must be a positive fault count, got -3",
            ),
            (
                ["select-paths", "s27", "--n", "0"],
                "n must be a positive path count, got 0",
            ),
            (
                ["table", "2.9"],
                "unknown table '2.9' (one of 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, "
                "3.1, 3.2, 3.3, 3.4, 3.5, 4.1, 4.2, 4.3, 4.4, chapter4, "
                "fig1-examples, fig1-scan, fig4-hardware, ablation-scan-styles, "
                "ablation-signal-patterns, ablation-weighted-tpg, ndetect)",
            ),
            *(
                (["table", t, f"--{flag}", v], f"--{flag} applies only to {takers}, not {t}")
                for t, flag, v, takers in (
                    ("3.1", "timeout", "0.01", "tables 4.3, 4.4, chapter4"),
                    ("3.1", "retries", "0", "tables 4.3, 4.4, chapter4"),
                    ("2.1", "timeout", "5", "tables 4.3, 4.4, chapter4"),
                    ("4.2", "retries", "1", "tables 4.3, 4.4, chapter4"),
                    ("3.1", "jobs", "2", "tables 4.3, 4.4, chapter4"),
                    ("3.1", "shards", "2", "tables 4.3, 4.4, chapter4"),
                )
            ),
            (
                ["generate", "s27", "--hold", "--tree-height", "-1"],
                "tree-height must be a non-negative tree height, got -1",
            ),
            (["stats", "trace.jsonl", "--limit", "-1"], "limit must be a positive count, got -1"),
            (["db", "runs", "--limit", "-1"], "limit must be a positive count, got -1"),
        ],
        ids=[
            "table-jobs0", "table-jobs-7", "table-shards0", "generate-shards-1",
            "table-timeout-1", "table-timeout0", "table-retries-1",
            "generate-length0", "generate-length-5", "generate-time-limit-1",
            "tpdf-max-faults-3", "select-paths-n0", "table2.9",
            "table3.1-timeout", "table3.1-retries0", "table2.1-timeout",
            "table4.2-retries", "table3.1-jobs2", "table3.1-shards2",
            "generate-tree-height-1",
            "stats-limit-1", "db-runs-limit-1",
        ],
    )
    def test_bad_dispatch_count_exits_2(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, env, error",
        [
            (
                ["table", "4.2", "--db", "{missing}/x.db"], None,
                "cannot write --db {missing}/x.db: no directory {missing}",
            ),
            (
                ["table", "4.2"], "{missing}/x.db",
                "cannot write REPRO_DB {missing}/x.db: no directory {missing}",
            ),
            (
                ["generate", "s27", "--length", "20", "--trace", "{missing}/t.jsonl"], None,
                "cannot write --trace {missing}/t.jsonl: no directory {missing}",
            ),
            (
                ["table", "4.2", "--db", "{folder}"], None,
                "cannot write --db {folder}: it is a directory",
            ),
            (
                ["table", "4.2"], "{text}",
                "{text} is not an experiment database: file is not a database",
            ),
            (
                ["generate", "s27", "--length", "20", "--trace", "{folder}"], None,
                "cannot write --trace {folder}: it is a directory",
            ),
        ],
        ids=[
            "table-db", "table-repro-db", "generate-trace", "table-db-directory",
            "table-repro-db-not-a-database", "generate-trace-directory",
        ],
    )
    def test_unwritable_output_exits_2_before_any_work(
        self, argv, env, error, tmp_path, monkeypatch, capsys
    ):
        text = tmp_path / "notes.txt"
        text.write_text("not a database\n")
        paths = {"missing": tmp_path / "no" / "such", "folder": tmp_path, "text": text}
        monkeypatch.delenv("REPRO_DB", raising=False)
        if env is not None:
            monkeypatch.setenv("REPRO_DB", env.format(**paths))
        assert main([a.format(**paths) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error.format(**paths)}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "nosuch"],
            ["info", "nosuch"],
            ["tpdf", "nosuch"],
            ["select-paths", "nosuch"],
            ["generate", "s27", "--driver", "nosuch"],
        ],
        ids=["generate", "info", "tpdf", "select-paths", "generate-driver"],
    )
    def test_unknown_benchmark_exits_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown benchmark 'nosuch' (see repro-eda circuits)\n"


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
        assert main(["table", "4.3", "--jobs", "2"]) == 0
        loud = capsys.readouterr()
        assert "row 1 done: table4.3/s27" in loud.err
        assert main(["table", "4.3", "--jobs", "2", "--quiet"]) == 0
        quiet = capsys.readouterr()
        assert "done" not in quiet.err
        assert quiet.out == loud.out
