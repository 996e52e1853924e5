"""Self-test of the end-to-end benchmark harness.

Run with ``pytest benchmarks/e2e`` (about two minutes); the repository's
tier-1 suite collects only ``tests/``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import run
import workloads
from tracing import PER_LAYER_METRICS, WORK_COUNTERS
from workloads import REPO, WORKLOADS

RUN_PY = str(workloads.HERE / "run.py")


def cli(*args: str) -> str:
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=REPO,
        env=run.child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def golden(name: str, seed: int) -> str:
    return WORKLOADS[name].golden_path(seed).read_text()


# -- goldens ---------------------------------------------------------------


def test_table_4_3_goldens_equal_the_cli():
    assert golden("table4.3", 1) == cli("table", "4.3")
    assert golden("table4.3-jobs2", 1) == cli("table", "4.3", "--jobs", "2", "--quiet")


def test_table_3_1_golden_equals_the_cli():
    assert golden("table3.1", 1) == cli("table", "3.1")


def test_chapter4_golden_equals_the_experiments_measured_blocks():
    text = (REPO / "EXPERIMENTS.md").read_text()
    blocks = []
    for table in ("4.3", "4.4"):
        section = text.split(f"## Table {table} ")[1]
        measured = section.split("**Measured:**")[1]
        blocks.append(re.search(r"```\n(.*?)\n```", measured, re.S).group(1))
    assert golden("chapter4-report", 2) == "\n".join(blocks) + "\n"


def test_every_workload_has_shipped_and_holdout_goldens():
    for w in WORKLOADS.values():
        for seed in (w.shipped_seed, w.holdout_seed):
            path = w.golden_path(seed)
            assert path.exists(), path
            assert not w.shape(path.read_text()), path


def test_shape_checks_catch_violations():
    text = golden("table4.3", 7)
    assert workloads.shape_t43(text) == []
    # s298/s298 row: push SWA % above its SWAfunc % bound.
    broken = text.replace("28.68      12      72      28.68", "28.68      12      72      29.99")
    assert broken != text
    assert any("exceeds SWAfunc" in p for p in workloads.shape_t43(broken))
    # Unknown seed: no golden, so the shape check decides.
    assert WORKLOADS["table4.3"].check(12345, broken)
    assert WORKLOADS["table4.3"].check(12345, text) == []


# -- tracing ---------------------------------------------------------------


@pytest.fixture(scope="module")
def traced():
    """Two traced Table 4.3 runs in fresh interpreters."""
    runs = []
    for _ in range(2):
        child = run.spawn("trace", "table4.3", "1")
        assert child.code == 0, child.stderr
        runs.append(json.loads(child.stdout.strip().splitlines()[-1]))
    return runs


def test_traced_output_is_byte_identical(traced):
    for result in traced:
        assert result["output"] == golden("table4.3", 1)


def test_self_times_sum_to_the_traced_wall(traced):
    metrics = traced[0]["metrics"]
    attributed = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    total = attributed + metrics["process.import_s"] + metrics["trace.unattributed_s"]
    assert abs(total - metrics["trace.wall_s"]) <= 0.02 * metrics["trace.wall_s"]


def test_work_counters_repeat_exactly(traced):
    first, second = (r["metrics"] for r in traced)
    for name in WORK_COUNTERS:
        assert first[name] == second[name], name
    assert first["core.builtin_gen.seeds_evaluated"] > 0
    assert first["logic.bitsim.lane_cycles"] > 0


def test_tracer_restores_every_patched_name():
    workloads.ensure_importable()
    from tracing import Tracer

    Tracer.import_layers()
    import repro.experiments.tables4 as tables4
    from repro.core.builtin_gen import BuiltinGenerator
    from repro.logic import bitsim

    before = (bitsim.simulate_packed_words, BuiltinGenerator.run, tables4.get_circuit)
    tracer = Tracer(run="restore")
    with tracer.installed():
        assert bitsim.simulate_packed_words is not before[0]
        assert BuiltinGenerator.run is not before[1]
    assert (bitsim.simulate_packed_words, BuiltinGenerator.run, tables4.get_circuit) == before
    assert tracer.missing == []


# -- isolation and input validation ----------------------------------------


def test_child_env_strips_every_repro_setting(monkeypatch):
    for name in ("REPRO_TRACE", "REPRO_DB", "REPRO_KERNEL", "REPRO_FAULT", "REPRO_CACHE_DIR"):
        monkeypatch.setenv(name, "leaked")
    env = run.child_env()
    assert not [k for k in env if k.startswith("REPRO_")]
    # A leaked REPRO_KERNEL=leaked would make the artifact raise.
    child = run.spawn("run", "table4.3", "1")
    assert child.code == 0, child.stderr
    assert child.stdout == golden("table4.3", 1)


@pytest.mark.parametrize(
    "args",
    [
        ["--workload", "table9.9"],
        ["--seed", "abc"],
        ["--seed", "-3"],
        ["--seconds", "zero"],
        ["--trace", "2"],
        ["--record"],
    ],
)
def test_bad_input_exits_2_with_one_line(args):
    out = subprocess.run([sys.executable, RUN_PY, *args], capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stdout == ""
    assert len(out.stderr.strip().splitlines()) == 1, out.stderr


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "benchmarks" / "e2e")
    out = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "table4.3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout


# -- the benchmark contract ------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        PER_LAYER_METRICS
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_quick_run_is_correct_and_fast(tmp_path):
    out_file = tmp_path / "quick.json"
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, RUN_PY, "--quick", "--out", str(out_file)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert out.returncode == 0, out.stderr
    assert elapsed < 60
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    for name in WORKLOADS:
        for metric in run.END_TO_END:
            assert last["metrics"][f"{name}/{metric}"]["value"] > 0
    # A results file is never worse than itself.
    compared = subprocess.run(
        [sys.executable, RUN_PY, "--compare", str(out_file), str(out_file)],
        capture_output=True,
        text=True,
    )
    assert compared.returncode == 0
    assert "worse" not in compared.stdout


# -- compare and record ----------------------------------------------------


def stats(median: float, spread: float) -> dict:
    return {"median": median, "q1": median * (1 - spread / 2), "q3": median * (1 + spread / 2)}


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        (stats(1.0, 0.02), stats(1.0, 0.02), "lower", "same"),
        (stats(1.0, 0.02), stats(1.2, 0.02), "lower", "worse"),
        (stats(1.0, 0.02), stats(0.8, 0.02), "lower", "better"),
        (stats(1.0, 0.02), stats(0.8, 0.02), "higher", "worse"),
        (stats(1.0, 0.5), stats(1.15, 0.5), "lower", "unresolved"),
        (stats(1.0, 0.5), stats(1.05, 0.5), "lower", "unresolved"),
        (stats(1.0, 0.3), stats(2.0, 0.3), "lower", "worse"),
    ],
)
def test_verdict(a, b, better, expected):
    assert run.verdict(a, b, 0.10, better) == expected


def test_record_lands_in_the_experiment_db(tmp_path):
    result = {
        "workload": "table4.3",
        "fail_rate": 0.0,
        "end_to_end": {"wall_s": {"median": 1.0, "q1": 0.9, "q3": 1.1, "n": 3}},
        "per_layer": {"logic.bitsim.self_s": 0.25, "trace.overhead": 0.02},
    }
    db_path = tmp_path / "exp.db"
    run.record([result], str(db_path), quick=True)
    from repro.expdb import ExperimentDB

    db = ExperimentDB(db_path)
    try:
        assert db.bench_history("table4_3", "wall_s", "median") == [1.0]
        assert db.bench_history("table4_3", "logic_bitsim", "self_s") == [0.25]
    finally:
        db.close()
    trend = subprocess.run(
        [sys.executable, "-m", "repro.cli", "db", "trend", "table4_3.wall_s.median",
         "--db", str(db_path)],
        cwd=REPO,
        env=run.child_env(),
        capture_output=True,
        text=True,
    )
    assert trend.returncode == 0, trend.stderr
    assert "newest first): 1" in trend.stdout
