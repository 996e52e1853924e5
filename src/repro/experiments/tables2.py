"""Chapter 2 experiments: Tables 2.1 - 2.6.

One pipeline run per circuit yields every Chapter 2 table:

* 2.1 / 2.2 -- fault counts and classification (all paths enumerated vs.
  longest paths until a target number of detected faults);
* 2.3 / 2.4 -- detected-fault split per sub-procedure;
* 2.5 / 2.6 -- run-time split per sub-procedure.

The circuit lists and fault-count targets are parameters; the shipped
ones live in :mod:`repro.experiments.artifacts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.atpg.tpdf import (
    ABORTED,
    DETECTED,
    SUB_BRANCH_BOUND,
    SUB_FSIM,
    SUB_HEURISTIC,
    TpdfPipeline,
    TpdfReport,
    UNDETECTABLE,
)
from repro.circuits.benchmarks import get_circuit
from repro.experiments.format import render, seconds
import itertools

from repro.faults.lists import tpdfs_of_paths
from repro.paths.enumeration import iter_paths, k_longest_paths


@dataclass
class Chapter2Run:
    """Pipeline result plus workload metadata for one circuit."""

    circuit_name: str
    n_faults: int
    report: TpdfReport


_RUN_CACHE: dict[tuple, list["Chapter2Run"]] = {}


def run_chapter2(
    circuits: Sequence[str],
    mode: str = "all",
    min_detected: int = 20,
    max_faults: int = 400,
) -> list[Chapter2Run]:
    """Run the TPDF pipeline over a circuit list.

    ``mode='all'`` enumerates every path (Table 2.1 workload, capped at
    ``max_faults`` faults for tractability); ``mode='longest'`` walks the
    longest paths first until at least ``min_detected`` faults are
    detected (Table 2.2 workload), growing the list in chunks.

    Results are cached per parameter set: Tables 2.1/2.3/2.5 (and
    2.2/2.4/2.6) are different views of the *same* runs, so the artifact
    registry only pays for the pipeline once.
    """
    key = (tuple(circuits), mode, min_detected, max_faults)
    cached = _RUN_CACHE.get(key)
    if cached is not None:
        return cached
    runs: list[Chapter2Run] = []
    for name in circuits:
        circuit = get_circuit(name)
        pipeline = TpdfPipeline(circuit)
        if mode == "all":
            # Enumerate every path, lazily capped: the paper's small
            # circuits are fully enumerable, and the synthetic stand-ins
            # simply stop at the fault budget.
            paths = list(itertools.islice(iter_paths(circuit), max_faults))
            report = pipeline.run(tpdfs_of_paths(paths)[:max_faults])
        else:
            report = _run_longest_first(
                circuit, pipeline, min_detected=min_detected, max_faults=max_faults
            )
        runs.append(
            Chapter2Run(
                circuit_name=name, n_faults=len(report.outcomes), report=report
            )
        )
    _RUN_CACHE[key] = runs
    return runs


def _run_longest_first(
    circuit, pipeline: TpdfPipeline, min_detected: int, max_faults: int
) -> TpdfReport:
    """Walk the longest paths down until enough faults are detected.

    Escalation is incremental: each round only pipelines the faults not
    classified in earlier rounds, and the reports are merged, so doubling
    the path window never repeats work.
    """
    n_paths = max(min_detected, 20)
    report = TpdfReport()
    while True:
        paths = k_longest_paths(circuit, k=n_paths)
        faults = tpdfs_of_paths(paths)[:max_faults]
        fresh = [f for f in faults if f not in report.outcomes]
        if fresh:
            part = pipeline.run(fresh)
            report.outcomes.update(part.outcomes)
            report.transition_tests.extend(part.transition_tests)
            report.tg_time += part.tg_time
            for key, value in part.sub_times.items():
                report.sub_times[key] = report.sub_times.get(key, 0.0) + value
        if report.count(DETECTED) >= min_detected or len(report.outcomes) >= max_faults:
            return report
        if len(paths) < n_paths:  # path space exhausted
            return report
        n_paths *= 2


# ---------------------------------------------------------------------------
# Table renderers
# ---------------------------------------------------------------------------


def table_2_1_rows(runs: Sequence[Chapter2Run]) -> list[dict]:
    """Rows of Table 2.1 / 2.2: classification counts and total run time."""
    return [
        {
            "Circuit": run.circuit_name,
            "No. of faults": run.n_faults,
            "No. of Det.": run.report.count(DETECTED),
            "No. of Undet.": run.report.count(UNDETECTABLE),
            "No. of Abr.": run.report.count(ABORTED),
            "Run time": seconds(run.report.total_time),
        }
        for run in runs
    ]


def table_2_3_rows(runs: Sequence[Chapter2Run]) -> list[dict]:
    """Rows of Table 2.3 / 2.4: detected faults per sub-procedure."""
    return [
        {
            "Circuit": run.circuit_name,
            "Prep. Proc.": run.report.prep_upper_bound,
            "FSim Proc.": run.report.detected_by(SUB_FSIM),
            "Heur. Proc.": run.report.detected_by(SUB_HEURISTIC),
            "Bran. Proc.": run.report.detected_by(SUB_BRANCH_BOUND),
        }
        for run in runs
    ]


def table_2_5_rows(runs: Sequence[Chapter2Run]) -> list[dict]:
    """Rows of Table 2.5 / 2.6: run time per sub-procedure."""
    return [
        {
            "Circuit": run.circuit_name,
            "TG for Tran.": seconds(run.report.tg_time),
            "Prep. Proc.": seconds(run.report.sub_times.get("preprocess", 0.0)),
            "FSim Proc.": seconds(run.report.sub_times.get("fault_simulation", 0.0)),
            "Heur. Proc.": seconds(run.report.sub_times.get("heuristic", 0.0)),
            "Bran. Proc.": seconds(run.report.sub_times.get("branch_and_bound", 0.0)),
        }
        for run in runs
    ]


def render_table(table: str, runs: Sequence[Chapter2Run]) -> str:
    """Render one of the Chapter 2 tables from a set of runs."""
    titles = {
        "2.1": "Table 2.1  Results of test generation (enumerate all paths)",
        "2.2": "Table 2.2  Results of test generation (longest paths first)",
        "2.3": "Table 2.3  Detected faults per sub-procedure (all paths)",
        "2.4": "Table 2.4  Detected faults per sub-procedure (longest first)",
        "2.5": "Table 2.5  Run time per sub-procedure (all paths)",
        "2.6": "Table 2.6  Run time per sub-procedure (longest first)",
    }
    if table in ("2.1", "2.2"):
        rows = table_2_1_rows(runs)
    elif table in ("2.3", "2.4"):
        rows = table_2_3_rows(runs)
    else:
        rows = table_2_5_rows(runs)
    return render(
        titles[table],
        list(rows[0].keys()) if rows else ["Circuit"],
        rows,
        note="synthetic benchmark stand-ins; see DESIGN.md substitutions",
    )
