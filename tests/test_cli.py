"""Tests for the repro-eda command-line interface."""

import argparse
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import tables4

REPO = Path(__file__).resolve().parent.parent

_TABLE_4_3_TARGET = tables4._table_4_3_target


def _invalid_choice(dest, value, choices):
    """Argparse's own invalid-choice message: Python versions quote choices differently."""
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_argument(dest, choices=choices)
    try:
        probe.parse_args([value])
    except argparse.ArgumentError as exc:
        return str(exc)
    raise AssertionError(f"{value!r} is a valid choice")


_DB_ACTIONS = ("runs", "show", "query", "trend", "gate")


def _s298_exits(target_name, **kwargs):
    """``_table_4_3_target``, except that the worker running s298 dies."""
    if target_name == "s298":
        os._exit(3)
    return _TABLE_4_3_TARGET(target_name=target_name, **kwargs)


class TestParser:
    @pytest.mark.parametrize("argv", [["--help"], ["table", "--help"]], ids=["top", "table"])
    def test_help_prints_usage_and_exits_0(self, argv, capsys):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: repro-eda")
        assert captured.err == ""

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
        args = build_parser().parse_args(["table", "4.3", "--quiet", "--stats"])
        assert args.quiet and args.stats

    def test_table_resilience_flags(self):
        args = build_parser().parse_args(["table", "4.3", "--timeout", "30"])
        assert args.timeout == 30.0
        assert build_parser().parse_args(["table", "4.3"]).timeout is None

    def test_overrun_rows_fail_alike_at_any_jobs(self, capsys):
        """A ``--timeout`` no row can meet fails every row; none prints shorter."""
        outs = []
        for jobs in ("1", "2"):
            argv = ["table", "4.3", "--timeout", "0.01", "--quiet"]
            assert main([*argv, "--jobs", jobs]) == 1
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].count("FAILED: timeout\n") == 2

    def test_crashed_row_fails_and_the_others_print(self, monkeypatch, capsys):
        """A worker that dies fails its row once; the other rows print as shipped."""
        monkeypatch.setattr(tables4, "_table_4_3_target", _s298_exits)
        assert main(["table", "4.3", "--jobs", "2", "--quiet"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "!! s298: FAILED: crash" in out
        golden = (REPO / "benchmarks/e2e/goldens/table4.3-seed1.txt").read_text()
        s27_rows = [line for line in golden.splitlines() if line.startswith("s27 ")]
        assert len(s27_rows) == 3
        assert [line for line in out if line.startswith("s27 ")] == s27_rows

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table", "4.3", "--jobs", "0"], "jobs must be a positive worker count, got 0"),
            (["table", "4.3", "--jobs", "-7"], "jobs must be a positive worker count, got -7"),
            (["table", "4.3", "--shards", "0"], "unrecognized arguments: --shards 0"),
            (["generate", "s27", "--shards", "-1"], "unrecognized arguments: --shards -1"),
            (["table", "4.3", "--jobs", "two"], "argument --jobs: invalid int value: 'two'"),
            (["db", "frob"], _invalid_choice("action", "frob", _DB_ACTIONS)),
            ([], "the following arguments are required: command"),
            (
                ["table", "4.3", "--timeout", "-1"],
                "timeout must be a positive number of seconds, got -1.0",
            ),
            (
                ["table", "4.3", "--timeout", "0"],
                "timeout must be a positive number of seconds, got 0.0",
            ),
            (
                ["table", "4.3", "--timeout", "inf"],
                "timeout must be at most 2147483 seconds, got inf",
            ),
            (
                ["table", "4.3", "--timeout", "3e6"],
                "timeout must be at most 2147483 seconds, got 3000000.0",
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
                    ("2.1", "timeout", "5", "tables 4.3, 4.4, chapter4"),
                    ("3.1", "jobs", "2", "tables 4.3, 4.4, chapter4"),
                )
            ),
            (["table", "3.1", "--shards", "2"], "unrecognized arguments: --shards 2"),
            (
                ["generate", "s27", "--hold", "--tree-height", "-1"],
                "tree-height must be a non-negative tree height, got -1",
            ),
            (
                ["generate", "s27", "--length", "20", "--tree-height", "5"],
                "--tree-height applies only with --hold",
            ),
            (["stats", "--limit", "-1"], "limit must be a positive count, got -1"),
            (["db", "runs", "--limit", "-1"], "limit must be a positive count, got -1"),
            (
                ["db", "trend", "gen.seeds_evaluated", "--last", "-2", "--db", "x.db"],
                "last must be a non-negative window, got -2",
            ),
            (["stats"], "no database: pass --db PATH"),
            (["db", "runs"], "no database: pass --db PATH"),
            (
                ["generate", "s298", "--driver", "s27"],
                "driver s27 has 1 primary outputs, fewer than the 3 primary inputs of s298",
            ),
        ],
        ids=[
            "table-jobs0", "table-jobs-7", "table-shards0", "generate-shards-1",
            "table-jobs-two", "db-frob", "no-command",
            "table-timeout-1", "table-timeout0", "table-timeout-inf",
            "table-timeout-3e6",
            "generate-length0", "generate-length-5", "generate-time-limit-1",
            "tpdf-max-faults-3", "select-paths-n0", "table2.9",
            "table3.1-timeout", "table2.1-timeout",
            "table3.1-jobs2", "table3.1-shards2",
            "generate-tree-height-1", "generate-tree-height-without-hold",
            "stats-limit-1", "db-runs-limit-1", "db-trend-last-2",
            "stats-no-db", "db-no-db", "generate-driver-too-narrow",
        ],
    )
    def test_bad_dispatch_count_exits_2(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, error",
        [
            (
                ["table", "4.2", "--db", "{missing}/x.db"],
                "cannot write --db {missing}/x.db: no directory {missing}",
            ),
            (
                ["table", "4.2", "--db", "{folder}"],
                "cannot write --db {folder}: it is a directory",
            ),
            (
                ["table", "4.2", "--db", "{text}"],
                "{text} is not an experiment database: file is not a database",
            ),
        ],
        ids=["table-db", "table-db-directory", "table-db-not-a-database"],
    )
    def test_unwritable_output_exits_2_before_any_work(self, argv, error, tmp_path, capsys):
        text = tmp_path / "notes.txt"
        text.write_text("not a database\n")
        paths = {"missing": tmp_path / "no" / "such", "folder": tmp_path, "text": text}
        assert main([a.format(**paths) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error.format(**paths)}\n"
        assert text.read_text() == "not a database\n"

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

    def test_generate_db_then_stats_renders_report_and_span_tree(self, tmp_path, capsys):
        path = str(tmp_path / "gen.db")
        argv = ["generate", "s27", "--length", "40", "--time-limit", "5", "--db", path]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["stats", "--db", path]) == 0
        out = capsys.readouterr().out
        assert "run 1: generate s27" in out
        assert "generation (Fig 4.9 construction)" in out
        root = re.search(r"^run  \d+\.\d+ ms  \[kind=generate label=s27\]$", out, re.MULTILINE)
        child = re.search(r"^  gen\.run  \d+\.\d+ ms", out, re.MULTILINE)
        assert root and child and root.start() < child.start()

    def test_collection_ends_with_its_run(self, capsys):
        """``--stats`` reports its own run only and leaves collection as found."""
        from repro import obs

        argv = ["generate", "s27", "--length", "40", "--time-limit", "5"]
        assert main([*argv, "--stats"]) == 0
        assert not obs.enabled()
        first = dict(obs.registry().counters)
        assert first["gen.seeds_evaluated"] > 0
        assert main(argv) == 0
        assert obs.registry().counters == first
        assert main([*argv, "--stats"]) == 0
        assert obs.registry().counters["gen.seeds_evaluated"] == first["gen.seeds_evaluated"]
        obs.enable()
        assert main(argv) == 0
        assert obs.enabled()
        capsys.readouterr()

    def test_table_quiet_suppresses_progress(self, capsys):
        assert main(["table", "4.3", "--jobs", "2"]) == 0
        loud = capsys.readouterr()
        assert "row 1 done: table4.3/s27" in loud.err
        assert main(["table", "4.3", "--jobs", "2", "--quiet"]) == 0
        quiet = capsys.readouterr()
        assert "done" not in quiet.err
        assert quiet.out == loud.out


class TestStandardLibraryOnly:
    def test_table_4_3_runs_on_the_standard_library_alone(self):
        """The shipped Table 4.3 imports nothing outside the standard library.

        Run inline, it imports neither ``multiprocessing`` (no worker is
        started) nor ``sqlite3`` (no ``--db``) either.
        """
        code = textwrap.dedent(
            """
            import sys

            class StandardLibraryOnly:
                @staticmethod
                def find_spec(name, path=None, target=None):
                    top = name.partition(".")[0]
                    if top in ("multiprocessing", "sqlite3"):
                        raise ImportError(f"an inline table 4.3 imported {name}")
                    if top != "repro" and top not in sys.stdlib_module_names:
                        raise ImportError(f"{name} is not in the standard library")
                    return None

            sys.meta_path.insert(0, StandardLibraryOnly)
            from repro.cli import main
            sys.exit(main(["table", "4.3", "--quiet"]))
            """
        )
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH")))
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
        )
        assert result.returncode == 0, result.stderr[-2000:]
        golden = REPO / "benchmarks" / "e2e" / "goldens" / "table4.3-seed1.txt"
        assert result.stdout == golden.read_text()
