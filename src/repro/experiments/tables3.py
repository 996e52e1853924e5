"""Chapter 3 experiments: Tables 3.1 - 3.5.

All five tables derive from :class:`repro.paths.selection.PathSelector`
runs:

* 3.1 -- the per-fault walkthrough (original delay, recalculated delay,
  newly identified paths) on one circuit;
* 3.2 -- |Target_PDF| before/after recalculation for a sweep of N;
* 3.3 -- how many faults are unique to one of the two selections;
* 3.4 -- original / final / after-TG delays for a handful of faults, with
  the difference expressed in inverter ("unit") delays;
* 3.5 -- across circuits: % of faults whose original delay differs from
  the after-TG delay, and of those, % where the recalculated delay is
  closer.
"""

from __future__ import annotations

from typing import Sequence

from repro.circuits.benchmarks import get_circuit
from repro.circuits.library import UNIT_DELAY_NS
from repro.experiments.format import render
from repro.paths.selection import PathSelector, SelectionResult


_SELECTION_CACHE: dict[tuple, tuple[PathSelector, SelectionResult]] = {}


def run_selection(
    circuit_name: str, n: int, closure_scan: int = 32, max_pool: int = 4096
) -> tuple[PathSelector, SelectionResult]:
    """One PathSelector run (cached: Tables 3.1-3.5 share the same runs)."""
    key = (circuit_name, n, closure_scan, max_pool)
    cached = _SELECTION_CACHE.get(key)
    if cached is not None:
        return cached
    selector = PathSelector(get_circuit(circuit_name), closure_scan=closure_scan)
    result = selector.run(n=n, max_pool=max_pool)
    _SELECTION_CACHE[key] = (selector, result)
    return selector, result


def table_3_1_rows(result: SelectionResult) -> list[dict]:
    """Rows of Table 3.1: the walkthrough on one circuit."""
    indices = {f: i + 1 for i, f in enumerate(result.final_target)}
    rows = []
    for fault in result.final_target:
        record = result.records[fault]
        new = ", ".join(f"fp{indices[d]}" for d in record.discovered if d in indices)
        rows.append(
            {
                "Path delay fault": f"fp{indices[fault]}",
                "original (ns)": round(record.original_delay, 3),
                "final (ns)": (
                    round(record.final_delay, 3)
                    if record.final_delay is not None
                    else None
                ),
                "new paths": new or "-",
            }
        )
    return rows


def table_3_2_rows(circuits: Sequence[str], ns: Sequence[int], closure_scan: int) -> list[dict]:
    """Rows of Table 3.2: Target_PDF size before/after recalculation."""
    rows = []
    for name in circuits:
        results = {str(n): run_selection(name, n, closure_scan=closure_scan)[1] for n in ns}
        rows.append({"Circuit": name, "row": "original"} | {
            n: r.original_size for n, r in results.items()
        })
        rows.append({"Circuit": "", "row": "final"} | {n: r.final_size for n, r in results.items()})
    return rows


def table_3_3_rows(circuits: Sequence[str], ns: Sequence[int], closure_scan: int) -> list[dict]:
    """Rows of Table 3.3: faults unique to one selection."""
    return [
        {"Circuit": name} | {
            str(n): run_selection(name, n, closure_scan=closure_scan)[1].unique_to_one_set(n)
            for n in ns
        }
        for name in circuits
    ]


def table_3_4_rows(circuit_name: str, n: int, max_faults: int) -> list[dict]:
    """Rows of Table 3.4: original / final / after-TG delay comparison."""
    selector, result = run_selection(circuit_name, n)
    rows = []
    for i, fault in enumerate(result.select(n)):
        if len(rows) >= max_faults:
            break
        record = result.records[fault]
        after_tg = selector.after_tg_delay(fault)
        if after_tg is None or record.final_delay is None:
            continue
        diff = record.original_delay - record.final_delay
        rows.append(
            {
                "fault": f"fp{i + 1}",
                "original": round(record.original_delay, 3),
                "final": round(record.final_delay, 3),
                "after TG": round(after_tg, 3),
                "diff": round(diff, 3),
                "diff_unit": round(diff / UNIT_DELAY_NS, 1),
            }
        )
    return rows


def table_3_5_rows(circuits: Sequence[str], n: int, max_tg: int) -> list[dict]:
    """Rows of Table 3.5: how often recalculation improves delay accuracy.

    ``Pct.1`` -- of the faults with an after-TG delay, the percentage whose
    original delay differs from it; ``Pct.2`` -- of those, the percentage
    where the recalculated ("final") delay is strictly closer.
    """
    rows = []
    for name in circuits:
        selector, result = run_selection(name, n)
        differs = 0
        closer = 0
        considered = 0
        for fault in result.select(n)[:max_tg]:
            record = result.records[fault]
            if record.final_delay is None:
                continue
            after_tg = selector.after_tg_delay(fault)
            if after_tg is None:
                continue
            considered += 1
            if abs(record.original_delay - after_tg) > 1e-9:
                differs += 1
                if abs(record.final_delay - after_tg) < abs(
                    record.original_delay - after_tg
                ) - 1e-12:
                    closer += 1
        rows.append(
            {
                "Circuit": name,
                "Pct. 1 %": round(100.0 * differs / considered, 1) if considered else 0,
                "Pct. 2 %": round(100.0 * closer / differs, 1) if differs else 0,
            }
        )
    return rows


def render_table_3_1(circuit_name: str, n: int) -> str:
    """Render Table 3.1 for one circuit."""
    _, result = run_selection(circuit_name, n)
    return render(
        f"Table 3.1  Path selection in {circuit_name}",
        ["Path delay fault", "original (ns)", "final (ns)", "new paths"],
        table_3_1_rows(result),
    )
