"""Tests for the experiment database (``repro.expdb``).

Covers schema-version migration (open a v1 file with v2 code),
fingerprint/code-hash round-trip, concurrent multi-process appends, and
``db gate`` pass/fail golden cases -- plus the one writer of campaign
runs (the CLI's ``--db``: run lifecycle, fingerprints, rows) and the
``repro-eda db`` / ``stats --db`` surfaces.
"""

import importlib.util
import multiprocessing
import sqlite3
import sys
from pathlib import Path

import pytest

from repro import expdb, obs
from repro.cli import main
from repro.expdb.gate import GateResult
from repro.expdb.store import MIGRATIONS, SCHEMA_VERSION, ExperimentDB, fingerprint_of
from repro.obs.registry import MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_obs():
    """Keep the obs singleton disabled and empty around every test."""
    obs.disable()
    obs.reset()
    yield
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


REPO = Path(__file__).resolve().parent.parent

#: The benchmark spec ``db gate`` reads its bounds from.
SPEC = REPO / "BENCHMARK.json"


def _load_e2e_run():
    """``benchmarks/e2e/run.py`` as a module: the producer of bench batches."""
    spec = importlib.util.spec_from_file_location(
        "e2e_run", REPO / "benchmarks" / "e2e" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


E2E = _load_e2e_run()

#: Historical end-to-end medians of every workload in :func:`e2e_batch`.
MEDIANS = {"wall_s": 1.5, "cpu_s": 1.4, "setup_s": 0.3, "peak_rss_mb": 80.0}
WORKLOADS = ("table4.3", "table4.3-jobs2", "chapter4-report", "table3.1")


def e2e_batch(fail_rate: float = 0.0, layer: float = 1.0, **factors: float) -> dict:
    """One ``run.py --record`` payload: every workload at ``MEDIANS`` x ``factors``.

    Built by ``run.py``'s own ``bench_payload``; ``layer`` scales the
    per-layer leaves, which the gate must ignore.
    """
    results = []
    for workload in WORKLOADS:
        end_to_end = {}
        for metric, base in MEDIANS.items():
            m = base * factors.get(metric, 1.0)
            end_to_end[metric] = {"median": m, "q1": 0.9 * m, "q3": 1.1 * m, "n": 5}
        per_layer = {"logic.bitsim.self_s": 0.25 * layer, "trace.overhead": 0.02 * layer}
        results.append(
            {
                "workload": workload,
                "fail_rate": fail_rate,
                "end_to_end": end_to_end,
                "per_layer": per_layer,
            }
        )
    return E2E.bench_payload(results)


def gate_history(db, *newest: dict, last: int = 5, bounds=None):
    """Record two batches at ``MEDIANS`` then ``newest``; gate the last one."""
    db.record_bench(e2e_batch())
    db.record_bench(e2e_batch())
    for payload in newest:
        db.record_bench(payload)
    return expdb.gate(db, bounds or expdb.load_bounds(SPEC), last=last)


def statuses(result) -> dict[str, str]:
    """Check label -> status."""
    return {c.label: c.status for c in result.checks}


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


@pytest.fixture(scope="module")
def table_runs(tmp_path_factory) -> dict[str, dict]:
    """``table 4.3``, ``4.3 --jobs 2``, ``4.4`` and ``4.2`` recorded into one file.

    Each stored run summary also carries its stored ``rows``.
    """
    path = str(tmp_path_factory.mktemp("table_runs") / "e.db")
    argvs = {
        "4.3": ["table", "4.3", "--quiet"],
        "4.3 --jobs 2": ["table", "4.3", "--quiet", "--jobs", "2"],
        "4.4": ["table", "4.4"],
        "4.2": ["table", "4.2"],
    }
    for argv in argvs.values():
        assert main([*argv, "--db", path]) == 0
    with ExperimentDB(path) as db:
        runs = [dict(run, rows=db.rows(run["id"])) for run in reversed(db.runs())]
    return dict(zip(argvs, runs))


class TestRunsAndRows:
    def test_fingerprint_and_code_hash_round_trip(self, tmp_path):
        params = {"table": "4.3", "targets": ("s27",), "n_sequences": 16}
        fp = fingerprint_of(params)
        with ExperimentDB(tmp_path / "e.db") as db:
            run_id = db.begin_run("table", "4.3", fingerprint=fp, executor="pool")
            db.finish_run(run_id)
            run = db.run(run_id)
        assert run["fingerprint"] == fp == fingerprint_of(params)
        assert run["code_hash"] == expdb.code_hash()
        assert len(run["code_hash"]) == 16

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

    def test_runner_records_completed_and_failed_rows(self, tmp_path, capsys):
        """Rows a ``--timeout`` no row can meet land as ``failed`` rows."""
        path = str(tmp_path / "e.db")
        timed = ["table", "4.3", "--timeout", "0.01", "--quiet"]
        assert main([*timed, "--db", path]) == 1
        capsys.readouterr()
        with ExperimentDB(path) as db:
            run = db.runs()[0]
            assert (run["status"], run["exit_code"]) == ("failed", 1)
            rows = db.rows(run["id"])
        assert [(r["key"], r["idx"], r["status"]) for r in rows] == [
            ("table4.3/s27", 0, "failed"),
            ("table4.3/s298", 1, "failed"),
        ]
        assert rows[0]["payload"]["failure"] == "FAILED: timeout"

    def test_list_outcome_flattens_to_indexed_keys(self, table_runs):
        """A target's three Table 4.3 rows land as ``<key>#0`` .. ``#2``, in order."""
        for label in ("4.3", "4.3 --jobs 2"):
            rows = table_runs[label]["rows"]
            assert [(r["key"], r["idx"], r["status"]) for r in rows] == [
                (f"table4.3/{target}#{i}", idx, "ok")
                for idx, target in enumerate(("s27", "s298"))
                for i in range(3)
            ]
            assert [r["payload"]["Driving block"] for r in rows[:3]] == [
                "buffers", "s953", "s344",
            ]


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
        payload = e2e_batch()
        payload["fault_grading"] = {"circuit": "b14", "speedup": 500.0}  # flat
        payload["benchmark"] = "kernel"
        samples = expdb.flatten_bench(payload)
        assert ("table4_3", "wall_s", "median", 1.5) in samples
        assert ("table4_3", "fail_rate", "value", 0.0) in samples
        assert ("chapter4-report", "logic_bitsim", "self_s", 0.25) in samples
        # A flat section, a bookkeeping key or a string leaf is no sample.
        assert not any(s[0] in ("fault_grading", "benchmark") for s in samples)

    def test_gate_skips_without_history(self, tmp_path):
        with ExperimentDB(tmp_path / "e.db") as db:
            bounds = expdb.load_bounds(SPEC)
            assert expdb.gate(db, bounds).checks == []
            for n_before in (0, 1):
                db.record_bench(e2e_batch(wall_s=2.0))
                result = expdb.gate(db, bounds)
                assert len(result.checks) == 20
                assert all(c.status == "skip" for c in result.checks)
                assert result.ok  # skips never fail a fresh database
                assert f"{n_before} earlier batch(es), need 2" in result.report()

    def test_gate_passes_at_historical_level(self, tmp_path):
        with ExperimentDB(tmp_path / "e.db") as db:
            result = gate_history(db, e2e_batch())
        assert isinstance(result, GateResult)
        assert result.ok
        assert sorted(statuses(result)) == sorted(
            f"{w.replace('.', '_')}.{m}"
            for w in WORKLOADS
            for m in ("wall_s.median", "cpu_s.median", "setup_s.median",
                      "peak_rss_mb.median", "fail_rate.value")
        )
        assert set(statuses(result).values()) == {"pass"}
        assert result.report().endswith("PASS: 20 passed, 0 failed, 0 skipped")

    def test_gate_fails_on_20_percent_regression(self, tmp_path):
        """Every median 20% worse: only the 5% RSS bound is crossed."""
        factors = dict.fromkeys(MEDIANS, 1.2)
        with ExperimentDB(tmp_path / "e.db") as db:
            result = gate_history(db, e2e_batch(**factors))
        assert not result.ok
        failed = sorted(c.label for c in result.checks if c.status == "fail")
        assert failed == sorted(
            f"{w.replace('.', '_')}.peak_rss_mb.median" for w in WORKLOADS
        )
        assert "FAIL: 16 passed, 4 failed, 0 skipped" in result.report()

    @pytest.mark.parametrize("factor, ok", [(1.2, True), (1.3, False)])
    def test_wall_clock_bound_is_25_percent(self, tmp_path, factor, ok):
        with ExperimentDB(tmp_path / "e.db") as db:
            result = gate_history(db, e2e_batch(wall_s=factor))
        assert result.ok is ok
        assert statuses(result)["table4_3.wall_s.median"] == ("pass" if ok else "fail")

    def test_rss_bound_comes_from_the_spec(self, tmp_path):
        with ExperimentDB(tmp_path / "e.db") as db:
            assert gate_history(db, e2e_batch(peak_rss_mb=1.04)).ok
            db.record_bench(e2e_batch(peak_rss_mb=1.06))
            assert not expdb.gate(db, expdb.load_bounds(SPEC)).ok
            looser = dict(expdb.load_bounds(SPEC))
            looser["peak_rss_mb"] = expdb.Bound("lower", 0.10)
            assert expdb.gate(db, looser).ok

    def test_higher_is_better_bound(self, tmp_path):
        bounds = {"wall_s": expdb.Bound("higher", 0.10)}
        with ExperimentDB(tmp_path / "e.db") as db:
            assert gate_history(db, e2e_batch(wall_s=0.95), bounds=bounds).ok
            db.record_bench(e2e_batch(wall_s=0.85))
            assert not expdb.gate(db, bounds).ok

    def test_fail_rate_above_history_fails(self, tmp_path):
        with ExperimentDB(tmp_path / "e.db") as db:
            result = gate_history(db, e2e_batch(fail_rate=0.1))
        assert not result.ok
        failed = {c.label for c in result.checks if c.status == "fail"}
        assert failed == {f"{w.replace('.', '_')}.fail_rate.value" for w in WORKLOADS}

    def test_old_kernel_sections_and_per_layer_leaves_are_ignored(self, tmp_path):
        def with_kernel_section(payload: dict, speedup: float) -> dict:
            payload["fault_grading"] = {"b14": {"speedup": speedup, "n_tests": 64}}
            return payload

        with ExperimentDB(tmp_path / "e.db") as db:
            db.record_bench(with_kernel_section(e2e_batch(), 500.0))
            db.record_bench(with_kernel_section(e2e_batch(), 500.0))
            db.record_bench(with_kernel_section(e2e_batch(layer=10.0), 5.0))
            result = expdb.gate(db, expdb.load_bounds(SPEC))
        assert result.ok
        assert len(result.checks) == 20
        assert not any(
            c.section == "fault_grading" or c.subject in ("logic_bitsim", "trace")
            for c in result.checks
        )

    def test_gate_latest_batch_judged_against_prior_only(self, tmp_path):
        with ExperimentDB(tmp_path / "e.db") as db:
            # With the newest batch in its own window, the median would be
            # (1.0 + 1.3) / 2 of the base and 1.3x would pass.
            result = gate_history(db, e2e_batch(wall_s=1.3), last=2)
        check = next(c for c in result.checks if c.label == "table4_3.wall_s.median")
        assert check.history == [1.5, 1.5]
        assert check.status == "fail" and not result.ok

    def test_bench_history_is_newest_first_and_bounded(self, tmp_path):
        with ExperimentDB(tmp_path / "e.db") as db:
            for s in (1.0, 2.0, 3.0):
                db.record_bench(e2e_batch(wall_s=s))
            history = db.bench_history("table4_3", "wall_s", "median", last=2)
        assert history == [4.5, 3.0]


class TestCliDb:
    def _seed(self, path) -> None:
        with ExperimentDB(path) as db:
            run_id = db.begin_run("table", "4.3", fingerprint="aa" * 8)
            db.record_row(run_id, "t/a#0", 0, {"Circuit": "s27", "FC %": 46.9})
            db.finish_run(run_id, snapshot=snapshot_with_metrics())
            db.record_bench(e2e_batch())
            db.record_bench(e2e_batch())

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
            ["db", "trend", "--metric", "table4_3.wall_s.median", "--db", path]
        ) == 0
        assert "(newest first): 1.5, 1.5" in capsys.readouterr().out
        # --last 0 keeps meaning "unlimited" for trend.
        assert main(["db", "trend", "gen.seeds_evaluated", "--last", "0", "--db", path]) == 0
        assert "128" in capsys.readouterr().out
        assert main(["db", "trend", "--metric", "no.such.metricxyz9", "--db", path]) == 1
        capsys.readouterr()
        # A negative window is a usage error on both sources, never "newest only".
        for metric in ("gen.seeds_evaluated", "table4_3.wall_s.median"):
            assert main(["db", "trend", metric, "--last", "-2", "--db", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: last must be a non-negative window, got -2\n"
        # On the bench fallback too, --last bounds the window and 0 lifts it.
        with ExperimentDB(path) as db:
            for _ in range(4):
                db.record_bench(e2e_batch())
        bench = ["db", "trend", "table4_3.wall_s.median", "--db", path]
        for last, shown in (("1", 1), ("0", 6), (None, 5)):
            assert main([*bench, *(["--last", last] if last else [])]) == 0
            assert capsys.readouterr().out == (
                "bench table4_3.wall_s.median (newest first): "
                + ", ".join(["1.5"] * shown) + "\n"
            )

    def test_db_gate_exit_codes(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "e.db")
        self._seed(path)
        monkeypatch.chdir(REPO)
        with ExperimentDB(path) as db:
            db.record_bench(e2e_batch())
        assert main(["db", "gate", "--db", path]) == 0
        out = capsys.readouterr().out
        assert out.count("  PASS ") == 20
        assert "PASS: 20 passed, 0 failed, 0 skipped" in out
        with ExperimentDB(path) as db:
            db.record_bench(e2e_batch(wall_s=1.3))
        assert main(["db", "gate", "--db", path]) == 1
        out = capsys.readouterr().out
        assert "  FAIL table4_3.wall_s.median: 1.95 > 1.875" in out
        assert "FAIL: 16 passed, 4 failed, 0 skipped" in out

    @pytest.mark.parametrize(
        "spec",
        [
            None,
            "{not json",
            "[1, 2]",
            '{"workloads": []}',
            '{"end_to_end": []}',
            '{"end_to_end": [{"name": "wall_s", "better": "lower"}]}',
            '{"end_to_end": [{"name": "wall_s", "better": "down", "bound": 0.25}]}',
            '{"end_to_end": [{"name": "wall_s", "better": "lower", "bound": -1}]}',
        ],
        ids=[
            "missing", "not-json", "not-an-object", "no-end-to-end", "empty",
            "no-bound", "bad-better", "negative-bound",
        ],
    )
    def test_db_gate_needs_a_benchmark_spec(self, tmp_path, capsys, monkeypatch, spec):
        path = str(tmp_path / "e.db")
        self._seed(path)
        workdir = tmp_path / "elsewhere"
        workdir.mkdir()
        if spec is not None:
            (workdir / "BENCHMARK.json").write_text(spec)
        monkeypatch.chdir(workdir)
        assert main(["db", "gate", "--db", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "BENCHMARK.json" in captured.err

    @pytest.mark.parametrize("last", ["0", "1"])
    def test_db_gate_window_below_two_is_usage_error(
        self, tmp_path, capsys, monkeypatch, last
    ):
        path = str(tmp_path / "e.db")
        self._seed(path)
        monkeypatch.chdir(REPO)
        with ExperimentDB(path) as db:
            db.record_bench(e2e_batch(wall_s=3.0))  # fails with --last 5
        assert main(["db", "gate", "--db", path]) == 1
        capsys.readouterr()
        assert main(["db", "gate", "--db", path, "--last", last]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == (
            f"error: --last must be at least 2 (the gate needs 2 earlier "
            f"batches), got {last}"
        )

    def test_db_gate_without_a_bench_batch_is_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        """A gate with nothing to judge fails instead of passing everything."""
        path = str(tmp_path / "e.db")
        with ExperimentDB(path) as db:
            db.finish_run(db.begin_run("table", "4.3"))
        monkeypatch.chdir(REPO)
        assert main(["db", "gate", "--db", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: no bench batch in {path} (record one with "
            "benchmarks/e2e/run.py --record)\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["db", "runs"],
            ["db", "show"],
            ["db", "query", "SELECT 1"],
            ["db", "trend", "--metric", "gen.seeds_evaluated"],
            ["db", "gate"],
            ["stats"],
        ],
        ids=["runs", "show", "query", "trend", "gate", "stats"],
    )
    def test_read_only_command_creates_no_database(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        monkeypatch.chdir(REPO)  # where ``db gate`` finds BENCHMARK.json
        path = tmp_path / "typo.db"
        assert main([*argv, "--db", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no experiment database at {path}\n"
        assert list(tmp_path.iterdir()) == []

    def test_db_show_non_integer_run_is_usage_error(self, tmp_path, capsys):
        path = str(tmp_path / "e.db")
        self._seed(path)
        assert main(["db", "show", "abc", "--db", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == "error: db show needs a run id, got 'abc'"
        assert main(["db", "show", "1", "--db", path]) == 0

    def test_db_query_refuses_writes(self, tmp_path, capsys):
        path = str(tmp_path / "e.db")
        self._seed(path)
        count = "SELECT COUNT(*) FROM bench_samples"
        assert main(["db", "query", count, "--db", path]) == 0
        before = capsys.readouterr().out
        assert main(["db", "query", "DELETE FROM bench_samples", "--db", path]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "readonly" in err
        assert main(["db", "query", count, "--db", path]) == 0
        assert capsys.readouterr().out == before
        # The refusal leaves the handle writable for the store's own writes.
        with ExperimentDB(path) as db:
            with pytest.raises(expdb.ExperimentDBError):
                db.query("DROP TABLE runs")
            assert db.record_bench(e2e_batch()) == 3

    def test_db_without_path_is_usage_error(self, capsys):
        for argv in (["db", "runs"], ["stats"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: no database: pass --db PATH\n"

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


class TestFingerprints:
    """A run's fingerprint is its table's registry parameters, known at start."""

    def test_tables_record_distinct_fingerprints(self, table_runs):
        fingerprints = [table_runs[t]["fingerprint"] for t in ("4.3", "4.4", "4.2")]
        assert all(fingerprints)
        assert len(set(fingerprints)) == 3
        # --jobs changes where rows run, not what the run is.
        assert table_runs["4.3 --jobs 2"]["executor"] == "pool"
        assert table_runs["4.3 --jobs 2"]["fingerprint"] == table_runs["4.3"]["fingerprint"]

    def test_shipped_table_4_3_fingerprint_is_pinned(self, table_runs):
        """What ``table 4.3 --db`` records; it changes only with Table 4.3's parameters."""
        assert table_runs["4.3"]["fingerprint"] == "d0ffd1ee2118cf04"


class TestCliCampaign:
    def test_table_db_records_rows_metrics_and_fingerprint(self, tmp_path, capsys):
        # Table 4.1 simulates a TPG trace on every run, so it always has
        # metrics to record; Table 4.2 only reads per-circuit memos (the
        # input cube), which an earlier test in this process may have filled.
        path = str(tmp_path / "e.db")
        assert main(["table", "4.1", "--db", path]) == 0
        capsys.readouterr()
        with ExperimentDB(path) as db:
            runs = db.runs()
            assert len(runs) == 1
            run = runs[0]
            assert run["kind"] == "table" and run["label"] == "4.1"
            assert run["status"] == "ok" and run["exit_code"] == 0
            assert run["code_hash"] == expdb.code_hash()
            assert run["n_metrics"] > 0  # --db implies metric collection
        assert not obs.enabled()  # and collection ends with the run

    def test_db_flag_does_not_leak_into_later_commands(self, tmp_path, capsys):
        """``--db`` records one run; a later command without it records none."""
        path = str(tmp_path / "e.db")
        assert main(["table", "4.2", "--db", path]) == 0
        assert main(["table", "4.1"]) == 0
        capsys.readouterr()
        with ExperimentDB(path) as db:
            assert [r["label"] for r in db.runs()] == ["4.2"]

    def test_timed_table_records_pool_executor_at_jobs_1(self, tmp_path, capsys):
        """``--timeout`` puts the rows on a worker even at ``--jobs 1``."""
        path = str(tmp_path / "e.db")
        assert main(["table", "4.2", "--db", path]) == 0
        timed = ["table", "4.3", "--timeout", "0.01", "--quiet"]
        assert main([*timed, "--db", path]) == 1
        capsys.readouterr()
        with ExperimentDB(path) as db:
            assert [r["executor"] for r in db.runs()] == ["pool", "inprocess"]

    def test_generate_db_records_result_row(self, tmp_path, capsys):
        path = str(tmp_path / "e.db")
        assert main(
            ["generate", "s27", "--length", "40", "--time-limit", "5",
             "--db", path]
        ) == 0
        capsys.readouterr()
        with ExperimentDB(path) as db:
            run = db.runs()[0]
            assert run["kind"] == "generate"
            assert run["fingerprint"] == "9cd796f153dfbda9"
            rows = db.rows(run["id"])
            assert len(rows) == 1
            assert rows[0]["key"] == "generate/s27"
            assert rows[0]["payload"]["coverage"] > 0
