"""Smoke tests for the table/figure regeneration harness."""

import re
from pathlib import Path

import pytest

from repro.core.builtin_gen import BuiltinGenConfig
from repro.experiments.format import render, seconds
from repro.experiments.runner import ExperimentTask, derive_seed, run_tasks
from repro.experiments.tables2 import render_table, run_chapter2
from repro.experiments.tables3 import (
    render_table_3_1,
    run_selection,
    table_3_1_rows,
)
from repro.experiments.tables4 import (
    Table43Case,
    eligible_drivers,
    run_table_4_3,
    swa_func_of,
    table_4_1_rows,
    table_4_2_rows,
)


class TestFormat:
    def test_render_alignment(self):
        out = render("T", ["a", "bb"], [{"a": 1, "bb": 2.5}, {"a": 10, "bb": None}])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "2.5" in out and "-" in out

    def test_seconds(self):
        assert seconds(0) == "0:00:00"
        assert seconds(3725) == "1:02:05"


class TestChapter2Harness:
    def test_all_paths_mode(self):
        runs = run_chapter2(["s27"], mode="all")
        assert runs[0].n_faults == 56
        for table in ("2.1", "2.3", "2.5"):
            out = render_table(table, runs)
            assert "s27" in out

    def test_longest_mode(self):
        runs = run_chapter2(
            ["s27"], mode="longest", min_detected=5, max_faults=60,
            heuristic_time_limit=0.2, bnb_time_limit=0.5,
        )
        from repro.atpg.tpdf import DETECTED

        assert runs[0].report.count(DETECTED) >= 5


class TestChapter3Harness:
    def test_table_3_1(self):
        _, result = run_selection("s298", n=4, closure_scan=16)
        rows = table_3_1_rows(result)
        assert rows
        assert set(rows[0]) == {
            "Path delay fault",
            "original (ns)",
            "final (ns)",
            "new paths",
        }

    def test_experiments_table_3_1_block_is_what_the_cli_prints(self):
        """EXPERIMENTS.md shows ``repro-eda table 3.1`` (s298, n = 6)."""
        text = (Path(__file__).resolve().parents[1] / "EXPERIMENTS.md").read_text()
        section = text.split("## Tables 3.1 / 3.2 / 3.3 ")[1]
        measured = section.split("**Measured (s298 stand-in):**")[1]
        block = re.search(r"```\n(.*?)\n```", measured, re.S).group(1)
        assert block == render_table_3_1("s298", n=6)
        _, result = run_selection("s298", n=6)
        assert f"Target_PDF grew {result.original_size} -> {result.final_size};" in measured


class TestChapter4Harness:
    def test_table_4_1(self):
        rows, subsequences = table_4_1_rows("s298", length=16)
        assert len(rows) == 16
        assert rows[0]["SWA(i)"] == "-"
        for k, w in subsequences:
            assert 0 <= k < w <= 16

    def test_table_4_2(self):
        rows = table_4_2_rows(("s27",))
        assert rows[0] == {"Circuit": "s27", "NPO": 1, "NPI": 4, "NSP": 3, "NSV": 3}

    def test_eligible_drivers_rule(self):
        from repro.circuits.benchmarks import get_circuit

        target = get_circuit("s298")  # 3 inputs
        assert "s344" in eligible_drivers(target, ("s344", "s27"))
        # s27 has a single output: cannot drive 3 inputs.
        assert "s27" not in eligible_drivers(target, ("s27",))

    def test_swa_func_of_driving_block(self):
        """The bound comes from the driving block's own TPG (Section 4.6)."""
        from repro.bist.tpg import DevelopedTpg
        from repro.circuits.benchmarks import get_circuit
        from repro.core.embedded import compose, estimate_swa_func

        target, driver = get_circuit("s298"), get_circuit("s953")
        value = swa_func_of(target, "s953", n_sequences=4, length=40)
        assert 0 < value < 100
        assert value == estimate_swa_func(
            compose(driver, target),
            n_sequences=4,
            length=40,
            tpg=DevelopedTpg.for_circuit(driver),
        ).swa_func



def _square(x):
    return x * x


class TestRunner:
    def test_results_in_task_order(self):
        tasks = [
            ExperimentTask(key=f"sq/{i}", fn=_square, kwargs={"x": i})
            for i in range(6)
        ]
        assert run_tasks(tasks, jobs=1) == [0, 1, 4, 9, 16, 25]

    def test_pool_matches_inline(self):
        tasks = [
            ExperimentTask(key=f"sq/{i}", fn=_square, kwargs={"x": i})
            for i in range(6)
        ]
        assert run_tasks(tasks, jobs=3) == run_tasks(tasks, jobs=1)

    def test_jobs_none_runs_inline(self):
        tasks = [ExperimentTask(key="one", fn=_square, kwargs={"x": 4})]
        assert run_tasks(tasks, jobs=None) == [16]

    def test_negative_jobs_rejected(self):
        """Negative jobs used to silently run inline; now it is an error."""
        tasks = [ExperimentTask(key="one", fn=_square, kwargs={"x": 4})]
        with pytest.raises(ValueError, match=r"-2"):
            run_tasks(tasks, jobs=-2)

    def test_derive_seed_stable_and_distinct(self):
        a = derive_seed(5, "table4.3/s298")
        assert a == derive_seed(5, "table4.3/s298")
        assert a != derive_seed(5, "table4.3/s344")
        assert a != derive_seed(6, "table4.3/s298")
        assert 0 < a < 2**31 - 1

    def test_table_4_3_parallel_identical(self):
        """jobs=2 must reproduce the jobs=1 rows exactly."""
        config = BuiltinGenConfig(
            segment_length=40, time_limit=None, rng_seed=2,
            q_limit=1, r_limit=2, max_sequences=2,
        )
        kwargs = dict(
            targets=("s298", "s344"),
            drivers=("s953",),
            config=config,
            n_sequences=2,
            func_length=30,
        )
        serial = run_table_4_3(jobs=1, **kwargs)
        parallel = run_table_4_3(jobs=2, **kwargs)
        assert serial == parallel


class TestFigures:
    def test_fig_circuits_validate(self):
        from repro.experiments.figures import (
            fig_1_3_circuit,
            fig_1_4_circuit,
            fig_2_1_circuit,
        )

        for builder in (fig_1_3_circuit, fig_1_4_circuit, fig_2_1_circuit):
            builder().validate()

    def test_tpg_summaries(self):
        from repro.circuits.benchmarks import get_circuit
        from repro.experiments.figures import tpg_summaries

        summaries = tpg_summaries(get_circuit("s298"))
        styles = {s.style for s in summaries}
        assert styles == {"reference[73]", "developed"}
        developed = next(s for s in summaries if s.style == "developed")
        assert developed.n_lfsr == 32
