"""Tests for the experiment database (``repro.expdb``).

Covers the ISSUE's required cases -- schema-version migration (open a v1
file with v2 code), fingerprint/code-hash round-trip, concurrent
multi-process appends, and ``db gate`` pass/fail golden cases -- plus the
producer wiring (runner rows, CLI run lifecycle, stored-run reports) and
the ``repro-eda db`` / ``stats --db`` surfaces.
"""

import json
import multiprocessing
import os
import sqlite3

import pytest

from repro import expdb, obs
from repro.cli import main
from repro.expdb.gate import GateResult
from repro.expdb.store import MIGRATIONS, SCHEMA_VERSION, ExperimentDB
from repro.experiments.runner import ExperimentTask, run_tasks
from repro.obs.registry import MetricsRegistry
from repro.resilience.checkpoint import fingerprint_of


@pytest.fixture(autouse=True)
def _no_ambient_db(monkeypatch):
    """Isolate every test from REPRO_DB/REPRO_DB_RUN and module state."""
    monkeypatch.delenv(expdb.ENV_VAR, raising=False)
    monkeypatch.delenv(expdb.RUN_ENV_VAR, raising=False)
    expdb.reset()
    obs.disable()
    obs.reset()
    yield
    expdb.reset()
    obs.disable()
    obs.reset()


def snapshot_with_metrics() -> dict:
    """A registry snapshot carrying one of each metric kind."""
    reg = MetricsRegistry(enabled=True)
    reg.count("gen.seeds_evaluated", 128)
    reg.gauge("gen.coverage_percent", 93.5)
    for v in range(200):
        reg.observe("gen.truncated_length", float(v))
    reg.span_enter("gen.run")
    reg.span_exit("gen.run", 0.0, 1.25, {"circuit": "s27"})
    return reg.snapshot()


def bench_payload(speedup: float = 8.0) -> dict:
    """A minimal bench payload with one gated and one ungated metric."""
    return {
        "benchmark": "kernel",
        "code_hash": "cafe0123cafe0123",
        "utc": "2026-01-01T00:00:00Z",
        "workload": {"repeats": 2},
        "sequence_simulation": {
            "s1423": {"lines": 657, "packed_per_lane_speedup": speedup},
        },
        "fault_grading": {"circuit": "b14", "speedup": 500.0, "n_tests": 64},
    }


class TestSchema:
    def test_new_file_is_current_version(self, tmp_path):
        with ExperimentDB(tmp_path / "e.db") as db:
            assert db.schema_version == SCHEMA_VERSION

    def test_v1_file_migrates_to_v2_preserving_rows(self, tmp_path):
        path = tmp_path / "old.db"
        conn = sqlite3.connect(path)
        for statement in MIGRATIONS[0]:
            conn.execute(statement)
        conn.execute("PRAGMA user_version = 1")
        # A v1 metrics row has no p50/p95/p99 columns.
        conn.execute(
            "INSERT INTO runs (kind, label, code_hash, started_utc, status)"
            " VALUES ('table', '4.3', 'deadbeef00000000', '2026-01-01T00:00:00Z',"
            " 'ok')"
        )
        conn.execute(
            "INSERT INTO metrics (run_id, name, kind, value)"
            " VALUES (1, 'gen.seeds_evaluated', 'counter', 64.0)"
        )
        conn.commit()
        conn.close()

        with ExperimentDB(path) as db:
            assert db.schema_version == SCHEMA_VERSION
            # Old data survives; quantile columns exist and read NULL.
            cols, rows = db.query(
                "SELECT name, value, p50 FROM metrics WHERE run_id = 1"
            )
            assert rows == [("gen.seeds_evaluated", 64.0, None)]
            # New writes populate the v2 columns.
            run_id = db.begin_run("table", "4.3")
            db.finish_run(run_id, snapshot=snapshot_with_metrics())
            hist = db.run_snapshot(run_id)["histograms"]["gen.truncated_length"]
            assert hist["p50"] == pytest.approx(99.0, abs=2.0)

    def test_newer_schema_is_rejected(self, tmp_path):
        path = tmp_path / "future.db"
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        with pytest.raises(expdb.ExperimentDBError, match="newer"):
            ExperimentDB(path)

    def test_non_database_file_is_rejected(self, tmp_path):
        path = tmp_path / "not-a-db"
        path.write_text("just text\n" * 100)
        with pytest.raises(expdb.ExperimentDBError):
            ExperimentDB(path)


class TestRunsAndRows:
    def test_fingerprint_and_code_hash_round_trip(self, tmp_path):
        params = {"table": "4.3", "targets": ("s27",), "n_sequences": 16}
        fp = fingerprint_of(params)
        with ExperimentDB(tmp_path / "e.db") as db:
            run_id = db.begin_run(
                "table", "4.3", fingerprint=fp, kernel="word", executor="pool"
            )
            db.finish_run(run_id)
            run = db.run(run_id)
        assert run["fingerprint"] == fp == fingerprint_of(params)
        assert run["code_hash"] == expdb.code_hash()
        assert len(run["code_hash"]) == 16

    def test_annotate_run_rejects_unknown_fields(self, tmp_path):
        with ExperimentDB(tmp_path / "e.db") as db:
            run_id = db.begin_run("table", "4.3")
            with pytest.raises(ValueError, match="status"):
                db.annotate_run(run_id, status="hacked")

    def test_snapshot_round_trip_renders(self, tmp_path):
        from repro.obs.report import render_report

        with ExperimentDB(tmp_path / "e.db") as db:
            run_id = db.begin_run("generate", "s27")
            db.finish_run(run_id, snapshot=snapshot_with_metrics())
            snap = db.run_snapshot(run_id)
        assert snap["counters"]["gen.seeds_evaluated"] == 128
        assert snap["gauges"]["gen.coverage_percent"] == 93.5
        assert len(snap["events"]) == 1
        report = render_report(snap, title="stored run")
        assert "generation (Fig 4.9 construction)" in report
        assert "p50=" in report  # stored quantiles feed the formatter

    def test_runner_records_fresh_resumed_and_failed_rows(self, tmp_path):
        from repro.resilience.checkpoint import CheckpointJournal
        from repro.resilience.policy import RetryPolicy, TaskFailure

        db = expdb.configure(tmp_path / "e.db")
        journal_path = tmp_path / "journal.jsonl"
        run_id = db.begin_run("table", "test")
        expdb.set_current_run(run_id)
        tasks = [
            ExperimentTask(key="row/a", fn=_double, kwargs={"x": 2}),
            ExperimentTask(key="row/b", fn=_boom, max_retries=0),
        ]
        journal = CheckpointJournal.open(
            journal_path, fingerprint="fp", resume=False
        )
        results = run_tasks(
            tasks, policy=RetryPolicy(max_retries=0), checkpoint=journal
        )
        assert results[0] == 4
        assert isinstance(results[1], TaskFailure)
        rows = db.rows(run_id)
        assert [(r["key"], r["status"]) for r in rows] == [
            ("row/a", "ok"),
            ("row/b", "failed"),
        ]

        # Re-run with the journal: the completed row replays as resumed.
        run2 = db.begin_run("table", "test")
        expdb.set_current_run(run2)
        journal2 = CheckpointJournal.open(
            journal_path, fingerprint="fp", resume=True
        )
        run_tasks(
            [tasks[0]], policy=RetryPolicy(max_retries=0), checkpoint=journal2
        )
        assert [(r["key"], r["status"]) for r in db.rows(run2)] == [
            ("row/a", "resumed")
        ]

    def test_list_outcome_flattens_to_indexed_keys(self, tmp_path):
        db = expdb.configure(tmp_path / "e.db")
        run_id = db.begin_run("table", "test")
        expdb.set_current_run(run_id)
        run_tasks([ExperimentTask(key="grp", fn=_pair)])
        assert [r["key"] for r in db.rows(run_id)] == ["grp#0", "grp#1"]


def _double(x: int) -> int:
    """Module-level task fn (picklable) doubling its input."""
    return 2 * x


def _boom() -> None:
    """Module-level task fn that always fails."""
    raise RuntimeError("boom")


def _pair() -> list[dict]:
    """Module-level task fn returning a two-element list outcome."""
    return [{"v": 1}, {"v": 2}]


def _append_rows(args: tuple[str, int, int]) -> int:
    """Worker: open the shared DB and append ``n`` rows (own connection)."""
    path, worker, n = args
    with ExperimentDB(path) as db:
        run_id = db.begin_run("concurrency", f"worker-{worker}")
        for i in range(n):
            db.record_row(run_id, f"w{worker}/r{i}", i, {"worker": worker})
        db.finish_run(run_id)
    return n


class TestConcurrency:
    def test_parallel_processes_append_without_loss(self, tmp_path):
        path = str(tmp_path / "shared.db")
        # Create the file first so workers race on appends, not migration.
        ExperimentDB(path).close()
        n_workers, rows_each = 4, 25
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(n_workers) as pool:
            written = pool.map(
                _append_rows,
                [(path, w, rows_each) for w in range(n_workers)],
            )
        assert written == [rows_each] * n_workers
        with ExperimentDB(path) as db:
            runs = db.runs()
            assert len(runs) == n_workers
            assert all(r["status"] == "ok" for r in runs)
            _, rows = db.query("SELECT COUNT(*) FROM rows")
            assert rows == [(n_workers * rows_each,)]


class TestBenchAndGate:
    def test_flatten_handles_nested_and_flat_sections(self):
        samples = expdb.flatten_bench(bench_payload())
        assert ("sequence_simulation", "s1423", "packed_per_lane_speedup", 8.0) in samples
        assert ("fault_grading", "b14", "speedup", 500.0) in samples
        # Bookkeeping keys and non-numeric leaves never become samples.
        assert not any(s[0] in ("workload", "benchmark", "utc") for s in samples)

    def test_gate_skips_without_history(self, tmp_path):
        with ExperimentDB(tmp_path / "e.db") as db:
            result = expdb.gate(db, current=bench_payload())
        assert result.ok  # skips never fail a fresh database
        assert all(c.status == "skip" for c in result.checks)

    def test_gate_passes_at_historical_level(self, tmp_path):
        with ExperimentDB(tmp_path / "e.db") as db:
            db.record_bench(bench_payload(8.0))
            db.record_bench(bench_payload(8.2))
            result = expdb.gate(db, current=bench_payload(8.0))
        assert isinstance(result, GateResult)
        assert result.ok
        by_label = {c.label: c for c in result.checks}
        assert by_label["sequence_simulation.s1423.packed_per_lane_speedup"].status == "pass"

    def test_gate_fails_on_20_percent_regression(self, tmp_path):
        with ExperimentDB(tmp_path / "e.db") as db:
            db.record_bench(bench_payload(8.0))
            db.record_bench(bench_payload(8.0))
            result = expdb.gate(db, current=bench_payload(8.0 * 0.8))
        assert not result.ok
        failed = [c for c in result.checks if c.status == "fail"]
        assert [c.label for c in failed] == ["sequence_simulation.s1423.packed_per_lane_speedup"]
        assert "FAIL" in result.report()

    def test_gate_latest_batch_judged_against_prior_only(self, tmp_path):
        with ExperimentDB(tmp_path / "e.db") as db:
            db.record_bench(bench_payload(8.0))
            db.record_bench(bench_payload(8.0))
            db.record_bench(bench_payload(8.0 * 0.8))  # the newest batch
            result = expdb.gate(db)
        assert not result.ok  # its own value must not dilute the history

    def test_bench_history_is_newest_first_and_bounded(self, tmp_path):
        with ExperimentDB(tmp_path / "e.db") as db:
            for s in (1.0, 2.0, 3.0):
                db.record_bench(bench_payload(s))
            history = db.bench_history(
                "sequence_simulation", "s1423", "packed_per_lane_speedup", last=2
            )
        assert history == [3.0, 2.0]


class TestCliDb:
    def _seed(self, path) -> None:
        with ExperimentDB(path) as db:
            run_id = db.begin_run("table", "4.3", fingerprint="aa" * 8)
            db.record_row(run_id, "t/a#0", 0, {"Circuit": "s27", "FC %": 46.9})
            db.finish_run(run_id, snapshot=snapshot_with_metrics())
            db.record_bench(bench_payload(8.0))
            db.record_bench(bench_payload(8.0))

    def test_db_runs_and_show(self, tmp_path, capsys):
        path = str(tmp_path / "e.db")
        self._seed(path)
        assert main(["db", "runs", "--db", path]) == 0
        out = capsys.readouterr().out
        assert "table" in out and "4.3" in out
        assert main(["db", "show", "--db", path]) == 0
        out = capsys.readouterr().out
        assert "t/a#0" in out and "fingerprint" in out

    def test_db_query_tab_separated(self, tmp_path, capsys):
        path = str(tmp_path / "e.db")
        self._seed(path)
        sql = "SELECT key, json_extract(payload, '$.\"FC %\"') FROM rows"
        assert main(["db", "query", sql, "--db", path]) == 0
        out = capsys.readouterr().out
        assert "t/a#0\t46.9" in out

    def test_db_trend_metric_and_bench_fallback(self, tmp_path, capsys):
        path = str(tmp_path / "e.db")
        self._seed(path)
        assert main(["db", "trend", "--metric", "gen.seeds_evaluated", "--db", path]) == 0
        assert "128" in capsys.readouterr().out
        assert main(
            ["db", "trend", "--metric", "sequence_simulation.s1423.packed_per_lane_speedup",
             "--db", path]
        ) == 0
        assert "8" in capsys.readouterr().out
        assert main(["db", "trend", "--metric", "no.such.metricxyz9", "--db", path]) == 1

    def test_db_gate_exit_codes(self, tmp_path, capsys):
        path = str(tmp_path / "e.db")
        self._seed(path)
        good = tmp_path / "good.json"
        good.write_text(json.dumps(bench_payload(8.0)))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(bench_payload(8.0 * 0.8)))
        assert main(["db", "gate", "--db", path, "--input", str(good)]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["db", "gate", "--db", path, "--input", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_db_without_path_is_usage_error(self, capsys):
        assert main(["db", "runs"]) == 2
        assert "REPRO_DB" in capsys.readouterr().err

    def test_stats_from_db_renders_stored_report(self, tmp_path, capsys):
        path = str(tmp_path / "e.db")
        self._seed(path)
        assert main(["stats", "--db", path]) == 0
        out = capsys.readouterr().out
        assert "run 1: table 4.3" in out
        assert "seeds_evaluated" in out

    def test_stats_db_without_runs_exits_1(self, tmp_path, capsys):
        path = str(tmp_path / "empty.db")
        ExperimentDB(path).close()
        assert main(["stats", "--db", path]) == 1


class TestCliCampaign:
    def test_table_db_records_rows_metrics_and_fingerprint(self, tmp_path, capsys):
        path = str(tmp_path / "e.db")
        assert main(["table", "4.2", "--db", path]) == 0
        capsys.readouterr()
        with ExperimentDB(path) as db:
            runs = db.runs()
            assert len(runs) == 1
            run = runs[0]
            assert run["kind"] == "table" and run["label"] == "4.2"
            assert run["status"] == "ok" and run["exit_code"] == 0
            assert run["code_hash"] == expdb.code_hash()
            assert run["n_metrics"] > 0  # --db implies metric collection
        # The run id must not leak into later commands in this process.
        assert expdb.current_run() is None

    def test_generate_db_records_result_row(self, tmp_path, capsys):
        path = str(tmp_path / "e.db")
        assert main(
            ["generate", "s27", "--length", "40", "--time-limit", "5",
             "--db", path]
        ) == 0
        capsys.readouterr()
        with ExperimentDB(path) as db:
            run = db.runs()[0]
            assert run["kind"] == "generate" and run["fingerprint"]
            rows = db.rows(run["id"])
            assert len(rows) == 1
            assert rows[0]["key"] == "generate/s27"
            assert rows[0]["payload"]["coverage"] > 0
