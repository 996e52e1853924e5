"""The paper-artifact registry: one entry per table, figure and ablation.

Each :class:`Artifact` holds its artifact's one configuration
(``params``), the function that runs it, the renderer whose text
``repro-eda table ID`` prints, and the named shape checks that
EXPERIMENTS.md prints as PASS/FAIL lines and the tier-1 suite runs.
``python -m repro.experiments.report`` renders every Measured block of
EXPERIMENTS.md from these same entries, so no configuration lives
anywhere else.

Importing this module imports nothing else from ``repro``: each run
function, renderer and check imports its experiment module when called,
so ``repro-eda`` can validate a table id and its flags before any work.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

#: Tolerance for comparing rounded delays and switching percentages.
EPS = 1e-9

#: A shape check yields the problems it finds in a run's value; it
#: passes when it yields none.
CheckFn = Callable[[Any], Iterable[str]]


@dataclass(frozen=True)
class Dispatch:
    """Where and how an artifact's rows run; no field changes a result.

    The fields mirror ``repro-eda table``'s ``--jobs`` and ``--timeout``
    (the per-row deadline in seconds), plus the per-row
    ``progress(index, task, outcome)`` callback, which fires in task
    order as rows resolve and from which the CLI prints progress lines
    and records ``--db`` rows.  A row that overruns the deadline fails;
    it never comes back shorter.  Entries that run no rows on worker
    processes ignore them.
    """

    jobs: int | None = None
    progress: Callable | None = None
    timeout: float | None = None


@dataclass(frozen=True)
class Artifact:
    """One paper artifact at its one shipped configuration.

    ``compute(dispatch, **params)`` runs it; ``render(value)`` is the
    text ``repro-eda table ID`` prints; ``checks`` maps each shape claim
    to its :data:`CheckFn`; ``flags`` names the dispatch flags the entry
    accepts.
    """

    id: str
    params: Mapping[str, Any]
    compute: Callable[..., Any]
    render: Callable[[Any], str]
    checks: Mapping[str, CheckFn]
    flags: frozenset[str] = frozenset()

    def run(self, dispatch: Dispatch | None = None, **overrides: Any) -> Any:
        """Run at the shipped parameters; ``overrides`` replace some of them."""
        return self.compute(dispatch or Dispatch(), **{**self.params, **overrides})

    def check(self, value: Any) -> list[tuple[str, str | None]]:
        """``(name, reason)`` per check: the first problem, or ``None`` on a pass."""
        return [(name, next(iter(fn(value)), None)) for name, fn in self.checks.items()]


def failures(value: Any) -> list:
    """The degraded rows (:class:`repro.experiments.runner.TaskFailure`) of a run."""
    from repro.experiments.runner import TaskFailure

    if isinstance(value, TaskFailure):
        return [value]
    if isinstance(value, (list, tuple)):
        return [f for item in value for f in failures(item)]
    return []


def _lazy(module: str, function: str) -> Callable[..., Any]:
    """``repro.experiments.<module>.<function>``, imported on first call."""
    return lambda *args, **kwargs: getattr(
        importlib.import_module(f"repro.experiments.{module}"), function
    )(*args, **kwargs)


def _call(module: str, function: str) -> Callable[..., Any]:
    """A run function that calls ``_lazy(module, function)(**params)``."""
    return lambda dispatch, **params: _lazy(module, function)(**params)


def _rows_table(title: str, columns: Iterable[str] | None = None) -> Callable[[list], str]:
    """A renderer for a value that is a list of row dicts."""
    return lambda rows: _lazy("format", "render")(title, list(columns or rows[0]), rows)


def _every(ok: Callable[[Any], bool], items=lambda value: value, label=str) -> CheckFn:
    """A claim about every item of a value; the items it fails on are its problems."""
    return lambda value: (label(item) for item in items(value) if not ok(item))


def _unless(holds: bool, problem: str) -> list[str]:
    """The problem of a claim about the whole value, unless the claim holds."""
    return [] if holds else [problem]


def _by(rows: list[dict], key: str) -> dict:
    """Rows keyed by one of their columns."""
    return {row[key]: row for row in rows}


# ---------------------------------------------------------------------------
# Chapter 2: Tables 2.1/2.3/2.5 and 2.2/2.4/2.6 are three views of one run
# ---------------------------------------------------------------------------

_CH2_ALL = {"circuits": ("s27", "s298"), "mode": "all", "max_faults": 150}
_CH2_LONGEST = {"circuits": ("s526",), "mode": "longest", "min_detected": 6, "max_faults": 200}
_RUN_CHAPTER2 = _call("tables2", "run_chapter2")


def _chapter2_view(table: str) -> Callable[[list], str]:
    return lambda runs: _lazy("tables2", "render_table")(table, runs)


def _outcomes(run) -> tuple[int, int, int]:
    """Detected, undetectable and aborted counts of one Chapter 2 run."""
    from repro.atpg.tpdf import ABORTED, DETECTED, UNDETECTABLE

    return tuple(run.report.count(o) for o in (DETECTED, UNDETECTABLE, ABORTED))


def _per_circuit(ok: Callable[[Any], bool]) -> CheckFn:
    return _every(ok, label=lambda r: f"{r.circuit_name}: {_outcomes(r)} of {r.n_faults}")


def _some_detected(runs: list) -> list[str]:
    return _unless(
        any(_outcomes(r)[0] for r in runs),
        "; ".join(
            f"{r.circuit_name} detects 0 of {r.n_faults} ({_outcomes(r)[1]} undetectable, "
            f"{_outcomes(r)[2]} aborted)"
            for r in runs
        ),
    )


def _cheap_beat_bnb(runs: list) -> list[str]:
    from repro.atpg.tpdf import SUB_BRANCH_BOUND, SUB_FSIM, SUB_HEURISTIC

    cheap = sum(r.report.detected_by(s) for r in runs for s in (SUB_FSIM, SUB_HEURISTIC))
    bnb = sum(r.report.detected_by(SUB_BRANCH_BOUND) for r in runs)
    return _unless(cheap >= bnb, f"fsim + heuristic detect {cheap}, branch-and-bound {bnb}")


def _cheap_times_recorded(run) -> bool:
    from repro.atpg.tpdf import SUB_FSIM, SUB_PREPROCESS

    return all(run.report.sub_times.get(s, -1.0) >= 0.0 for s in (SUB_PREPROCESS, SUB_FSIM))


# ---------------------------------------------------------------------------
# Chapter 3
# ---------------------------------------------------------------------------

_CH3_SWEEP = {"circuits": ("s298", "s344"), "ns": (3, 6), "closure_scan": 16}


def _final_records(selection) -> list:
    """Selection records of Table 3.1's faults that have a recalculated delay."""
    _, result = selection
    records = (result.records[fault] for fault in result.final_target)
    return [r for r in records if r.final_delay is not None]


def _mostly_decrease(selection) -> list[str]:
    records = _final_records(selection)
    lower = sum(r.final_delay < r.original_delay - EPS for r in records)
    return _unless(2 * lower > len(records), f"{lower} of {len(records)} decrease")


def _sweep(rows: list[dict]) -> list[tuple[str, str, Any]]:
    """``(circuit, N, cell)`` for every N column of Table 3.2/3.3 rows."""
    return [(r["Circuit"], n, v) for r in rows for n, v in r.items() if n not in ("Circuit", "row")]


def _final_pairs(rows: list[dict]) -> list[tuple[str, str, int, int]]:
    """``(circuit, N, original, final)`` for every cell of Table 3.2."""
    return [
        (circuit, n, size, final[n])
        for original, final in zip(rows[::2], rows[1::2])
        for circuit, n, size in _sweep([original])
    ]


def _table_3_4(dispatch: Dispatch, circuit: str, n: int, max_faults: int):
    return circuit, _lazy("tables3", "table_3_4_rows")(circuit, n=n, max_faults=max_faults)


def _render_3_4(value) -> str:
    circuit, rows = value
    columns = ("fault", "original", "final", "after TG", "diff", "diff_unit")
    return _rows_table(f"Table 3.4  Path delay comparison of {circuit}", columns)(rows)


# ---------------------------------------------------------------------------
# Chapter 4
# ---------------------------------------------------------------------------


def _render_4_1(value) -> str:
    rows, subsequences = value
    table = _rows_table("Table 4.1  Example of primary input subsequence selection")(rows)
    return f"{table}\nadmissible subsequences P(k..w-1): {subsequences}"


def _violating_spans(value) -> Iterable[str]:
    rows, subsequences = value
    return (
        f"P({k}..{w - 1}) spans violating cycle {i}"
        for k, w in subsequences
        for i in range(k + 1, w)
        if rows[i]["violation"]
    )


def _chapter4(
    dispatch: Dispatch,
    targets: tuple[str, ...],
    drivers: tuple[str, ...],
    config: Mapping[str, Any],
    n_sequences: int,
    func_length: int,
    fc_threshold: float | None = None,
    tree_height: int | None = None,
    holding_config: Mapping[str, Any] | None = None,
):
    """Table 4.3 rows, plus the Table 4.4 holding pass when ``fc_threshold`` is set."""
    from repro.core.builtin_gen import BuiltinGenConfig
    from repro.experiments.tables4 import run_table_4_3, run_table_4_4

    per_row = {
        "jobs": dispatch.jobs,
        "progress": dispatch.progress,
        "timeout_s": dispatch.timeout,
    }
    base = run_table_4_3(
        targets=targets,
        drivers=drivers,
        config=BuiltinGenConfig(**config),
        n_sequences=n_sequences,
        func_length=func_length,
        **per_row,
    )
    if fc_threshold is None:
        return base
    held = run_table_4_4(
        base,
        fc_threshold=fc_threshold,
        tree_height=tree_height,
        config=BuiltinGenConfig(**holding_config),
        **per_row,
    )
    return base, held


_RENDER_4_3 = _lazy("tables4", "render_table_4_3")


def _render_4_4(value) -> str:
    return _lazy("tables4", "render_table_4_4")(value[1])


def _done(cases: Iterable) -> list:
    """The rows that did not degrade to a ``TaskFailure``."""
    return [c for c in cases if not failures(c)]


def _bounded(cases: list) -> list:
    """Completed Table 4.3 rows under a driving block (an SWA bound)."""
    return [c for c in _done(cases) if c.swa_func is not None]


def _near_buffers(cases: list) -> Iterable[str]:
    buffers = {c.target: c.result.coverage for c in _done(cases) if c.driver == "buffers"}
    return _every(
        lambda c: c.result.coverage <= buffers.get(c.target, 100.0) + 5.0,
        _bounded,
        lambda c: f"{c.target}/{c.driver}: FC {c.result.coverage:.2f} vs {buffers[c.target]:.2f}",
    )(cases)


def _case(c) -> str:
    return f"{c.target}/{c.driver}"


def _held(value) -> list:
    return _done(value[1])


def _buffers_rows(cases: list) -> Iterable[str]:
    pairs = {(c.target, c.driver) for c in _done(cases)}
    return _every(lambda target: (target, "buffers") in pairs)(sorted({t for t, _ in pairs}))


_SWA_CLAIM = "SWA % <= SWAfunc % in every constrained row"
_swa_within_bound = _every(lambda c: c.result.peak_swa <= c.swa_func + EPS, _bounded, _case)
_T44_CHECKS: dict[str, CheckFn] = {
    "state holding ran on at least one Table 4.3 case": lambda value: _unless(
        bool(_held(value)), "no Table 4.3 case fell below the FC threshold"
    ),
    "Final FC % >= the Table 4.3 FC % in every row": _every(
        lambda h: h.row()["Final FC %"] >= h.base.result.coverage - EPS,
        _held,
        lambda h: _case(h.base),
    ),
    "held SWA % <= SWAfunc % in every constrained row": _every(
        lambda h: h.base.swa_func is None
        or not h.holding.per_set_results
        or h.holding.peak_swa <= h.base.swa_func + EPS,
        _held,
        lambda h: _case(h.base),
    ),
}

#: ``repro-eda table 4.3``/``4.4``: the quick s27 + s298 campaign.
_CH4_CLI = {
    "targets": ("s27", "s298"),
    "drivers": ("s344", "s953"),
    "config": {"segment_length": 120, "time_limit": 10},
    "n_sequences": 16,
    "func_length": 120,
}

#: The dispatch flags of the entries that run their rows on worker processes.
_POOLED = frozenset({"jobs", "timeout"})

# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------


def _fig_1_examples(dispatch: Dispatch, circuit: str, max_paths: int, max_tests: int) -> dict:
    from repro.circuits.benchmarks import get_circuit
    from repro.experiments.figures import fig_1_3_circuit, fig_1_4_circuit, find_nonrobust_miss
    from repro.faults.models import RISE, Path, PathDelayFault
    from repro.faults.pdfsim import classify_sensitization
    from repro.logic.simulator import simulate_comb

    c3, c4 = fig_1_3_circuit(), fig_1_4_circuit()
    fault = PathDelayFault(Path(lines=("a", "c", "e", "g")), RISE)
    v2 = simulate_comb(c4, {"a": 1, "b": 0, "d": 1, "f": 0})
    return {
        "fig1.3": tuple(simulate_comb(c3, {"a": a, "b": 0, "d": 1})["e"] for a in (0, 1)),
        # Fig 1.4's robust test; Fig 1.5 adds an off-path falling transition on f.
        "fig1.4": classify_sensitization(
            c4, fault, simulate_comb(c4, {"a": 0, "b": 0, "d": 1, "f": 0}), v2
        ),
        "fig1.5": classify_sensitization(
            c4, fault, simulate_comb(c4, {"a": 0, "b": 0, "d": 1, "f": 1}), v2
        ),
        "fig1.6/1.7": find_nonrobust_miss(get_circuit(circuit), max_paths, max_tests),
    }


def _render_fig_1_examples(results: dict) -> str:
    miss = results["fig1.6/1.7"]
    return "\n".join(
        [
            "Fig 1.3 output transition e: {}->{}".format(*results["fig1.3"]),
            f"Fig 1.4 test classification: {results['fig1.4']}",
            f"Fig 1.5 test classification: {results['fig1.5']}",
            "Fig 1.6/1.7 phenomenon: not found"
            if miss is None
            else f"Fig 1.6/1.7 phenomenon: path {miss[0].path} has a non-robust test\n"
            f"  that misses constituent transition fault [{miss[2]}]",
        ]
    )


def _robust(results: dict, figure: str) -> bool:
    from repro.faults.pdfsim import ROBUST

    return results[figure] == ROBUST


def _fig_1_scan(dispatch: Dispatch, circuit: str) -> dict:
    from repro.circuits.benchmarks import get_circuit
    from repro.circuits.scan import ScanChains, broadside_waveform, insert_scan
    from repro.circuits.scan import se_transition_at_speed, skewed_load_waveform

    netlist = get_circuit(circuit)
    chains = ScanChains.partition(netlist)
    waveforms = {
        "skewed-load": skewed_load_waveform(chains.max_length),
        "broadside": broadside_waveform(chains.max_length),
    }
    return {
        "circuit": netlist,
        "chains": chains,
        "scanned": insert_scan(netlist, chains),
        "at_speed": {name: se_transition_at_speed(w) for name, w in waveforms.items()},
        "waveforms": {name: sorted(w, key=lambda e: e.cycle) for name, w in waveforms.items()},
    }


def _render_fig_1_scan(flow: dict) -> str:
    chains, at_speed = flow["chains"], flow["at_speed"]
    lines = [
        f"Fig 1.8  scan insertion: {flow['circuit']} -> {flow['scanned']}",
        f"         {chains.num_chains} chain(s), Lsc = {chains.max_length}",
        f"Fig 1.9  skewed-load: SE change at speed = {at_speed['skewed-load']}",
        f"Fig 1.10 broadside:   SE change at speed = {at_speed['broadside']}",
    ]
    for name, events in flow["waveforms"].items():
        phases = "".join(e.phase[0].upper() for e in events)
        lines.append(f"  {name:12s} SE:    {''.join(str(e.se) for e in events)}")
        lines.append(f"  {name:12s} phase: {phases}   (S=shift L=launch C=capture)")
    return "\n".join(lines)


def _fig_4_hardware(dispatch: Dispatch, lfsr_stages: int, tpg_circuits: tuple[str, ...]) -> dict:
    from repro.bist.counters import ClockCycleCounter, SetSelector
    from repro.bist.lfsr import Lfsr, signature_of
    from repro.circuits.benchmarks import get_circuit
    from repro.experiments.figures import tpg_summaries

    counter = ClockCycleCounter.for_length(64, q=1, h=2)
    signals = []
    for _ in range(8):
        signals.append((counter.apply_signal, counter.hold_enable))
        counter.tick()
    return {
        "lfsr_stages": lfsr_stages,
        "lfsr_period": Lfsr(n=lfsr_stages, seed=1).period(),
        "misr_sig": signature_of([[1, 0, 1], [0, 1, 1]], 16),
        "tpg": {name: tpg_summaries(get_circuit(name)) for name in tpg_circuits},
        "apply": [a for a, _ in signals],
        "hold": [h for _, h in signals],
        "one_hot": SetSelector(n_sets=3).one_hot(),
    }


def _render_fig_4_hardware(r: dict) -> str:
    n = r["lfsr_stages"]
    lines = [
        f"Fig 4.3  {n}-stage LFSR period: {r['lfsr_period']} (= 2^{n} - 1)",
        f"Fig 4.4  MISR signature of a 2-cycle response: 0x{r['misr_sig']:04x}",
        "Fig 4.7/4.8  TPG structures (flops = LFSR + shift register):",
    ]
    lines += [
        f"  {name:8s} {s.style:14s} LFSR {s.n_lfsr:4d}  SR {s.n_register_bits:4d}"
        f"  total flops {s.n_lfsr + s.n_register_bits:4d}  AND {s.n_and_gates}  OR {s.n_or_gates}"
        for name, summaries in r["tpg"].items()
        for s in summaries
    ]
    lines.append(f"Fig 4.6   apply signal (q=1): {r['apply']}")
    lines.append(f"Fig 4.11  hold enable  (h=2): {r['hold']}")
    lines.append(f"Fig 4.13  set selector one-hot: {r['one_hot']}")
    return "\n".join(lines)


def _developed_tpg_smaller(r: dict) -> list[str]:
    styles = [{s.style: s for s in summaries} for summaries in r["tpg"].values()]
    widest = max(styles, key=lambda by_style: by_style["reference[73]"].n_lfsr)
    dev, ref = widest["developed"], widest["reference[73]"]
    flops = dev.n_lfsr + dev.n_register_bits
    return _unless(flops < ref.n_lfsr, f"developed {flops} flops, reference LFSR {ref.n_lfsr}")


# ---------------------------------------------------------------------------
# Ablations and extensions: each value is a list of rows, raw floats kept
# ---------------------------------------------------------------------------


def _collapsed(circuit: str):
    """A benchmark circuit and its collapsed transition-fault list."""
    from repro.circuits.benchmarks import get_circuit
    from repro.faults.collapse import collapsed_transition_faults

    netlist = get_circuit(circuit)
    return netlist, collapsed_transition_faults(netlist)


def _generate(netlist, faults, swa_func, config: Mapping[str, Any], **kwargs):
    from repro.core.builtin_gen import BuiltinGenConfig, BuiltinGenerator

    config = BuiltinGenConfig(**config)
    return BuiltinGenerator(netlist, faults, swa_func, config=config, **kwargs).run()


def _ablation_scan_styles(dispatch: Dispatch, circuit: str, backtrack_limit: int) -> list:
    from repro.atpg.broadside import BroadsideAtpg

    netlist, faults = _collapsed(circuit)
    rows = []
    for style in ("broadside", "skewed_load", "enhanced"):
        r = BroadsideAtpg(netlist, style=style, backtrack_limit=backtrack_limit).generate_all(
            faults
        )
        fc = round(100.0 * len(r.detected) / len(faults), 2)
        rows.append(
            {"style": style, "detected": len(r.detected), "undet": len(r.undetectable),
             "aborted": len(r.aborted), "FC %": fc}
        )
    return rows


def _ablation_signal_patterns(
    dispatch: Dispatch,
    circuit: str,
    n_sequences: int,
    length: int,
    sequence_seed: int,
    config: Mapping[str, Any],
) -> list:
    import random

    from repro.core.signal_patterns import FunctionalPatternBank
    from repro.logic.simulator import simulate_sequence

    netlist, faults = _collapsed(circuit)
    rng = random.Random(sequence_seed)
    functional = [
        [[rng.randint(0, 1) for _ in netlist.inputs] for _ in range(length)]
        for _ in range(n_sequences)
    ]
    reset = [0] * len(netlist.flops)
    swa_func = max(
        simulate_sequence(netlist, reset, seq, keep_line_values=False).peak_switching
        for seq in functional
    )
    bank = FunctionalPatternBank.collect(netlist, reset, functional)
    runs = {
        "SWA": _generate(netlist, faults, swa_func, config),
        "signal patterns": _generate(netlist, faults, swa_func, config, pattern_bank=bank),
    }
    return [
        {"bound": name, "SWAfunc %": swa_func, "FC %": run.coverage, "Ntests": run.n_tests,
         "peak SWA %": run.peak_swa}
        for name, run in runs.items()
    ]


def _ablation_weighted_tpg(dispatch: Dispatch, circuit: str, config: Mapping[str, Any]) -> list:
    from repro.bist.weighted import WeightedTpg

    netlist, faults = _collapsed(circuit)
    weighted = WeightedTpg.for_circuit(netlist)
    runs = {
        "cube (Fig 4.8)": _generate(netlist, faults, None, config),
        "COP-weighted": _generate(netlist, faults, None, config, tpg=weighted),
    }
    return [
        {"TPG": name, "FC %": run.coverage, "Ntests": run.n_tests, "Nseeds": run.n_seeds,
         "SWA %": run.peak_swa}
        for name, run in runs.items()
    ]


def _ndetect(dispatch: Dispatch, circuit: str, config: Mapping[str, Any], levels: tuple):
    from repro.faults.ndetect import n_detect_profile

    netlist, faults = _collapsed(circuit)
    result = _generate(netlist, faults, None, config)
    profile = n_detect_profile(netlist, result.tests, faults)
    return [
        {"n": n, "Ntests": result.n_tests, "faults": profile.n_detected(n),
         "FC %": profile.coverage(n)}
        for n in levels
    ]


# ---------------------------------------------------------------------------
# The registry: Artifact(id, params, compute, render, checks[, flags])
# ---------------------------------------------------------------------------

ARTIFACTS: dict[str, Artifact] = {
    a.id: a
    for a in (
        Artifact("2.1", _CH2_ALL, _RUN_CHAPTER2, _chapter2_view("2.1"), {
            "Det. + Undet. + Abr. = faults in every row": _per_circuit(
                lambda r: sum(_outcomes(r)) == r.n_faults
            ),
            "at least 85% of every circuit's faults proven detected or undetectable":
                _per_circuit(lambda r: sum(_outcomes(r)[:2]) >= 0.85 * r.n_faults),
        }),
        Artifact("2.2", _CH2_LONGEST, _RUN_CHAPTER2, _chapter2_view("2.2"), {
            "some circuit detects at least one fault": _some_detected,
            "at least 60% of every circuit's faults proven detected or undetectable":
                _per_circuit(lambda r: sum(_outcomes(r)[:2]) >= 0.60 * r.n_faults),
        }),
        Artifact("2.3", _CH2_ALL, _RUN_CHAPTER2, _chapter2_view("2.3"), {
            "fault simulation + heuristic detect at least as many faults as "
            "branch-and-bound": _cheap_beat_bnb,
        }),
        Artifact("2.4", _CH2_LONGEST, _RUN_CHAPTER2, _chapter2_view("2.4"), {
            "the preprocessing upper bound never exceeds the fault count": _per_circuit(
                lambda r: r.report.prep_upper_bound <= r.n_faults
            ),
        }),
        Artifact("2.5", _CH2_ALL, _RUN_CHAPTER2, _chapter2_view("2.5"), {
            "preprocessing and fault-simulation times are recorded": _per_circuit(
                _cheap_times_recorded
            ),
        }),
        Artifact("2.6", _CH2_LONGEST, _RUN_CHAPTER2, _chapter2_view("2.6"), {
            "every circuit's total run time is positive": _per_circuit(
                lambda r: r.report.total_time > 0
            ),
        }),
        Artifact(
            "3.1", {"circuit_name": "s298", "n": 6}, _call("tables3", "run_selection"),
            lambda selection: _lazy("tables3", "render_table_3_1")(
                selection[0].circuit.name, selection[1].n_requested
            ),
            {
                "recalculated delays never increase": _every(
                    lambda r: r.final_delay <= r.original_delay + EPS, _final_records,
                    lambda r: f"final {r.final_delay} > original {r.original_delay}",
                ),
                "most recalculated delays decrease": _mostly_decrease,
            },
        ),
        Artifact(
            "3.2", _CH3_SWEEP, _call("tables3", "table_3_2_rows"),
            _rows_table("Table 3.2  Path group size comparison"), {
                "final size >= original size for every circuit and N": _every(
                    lambda cell: cell[3] >= cell[2], _final_pairs
                ),
            },
        ),
        Artifact(
            "3.3", _CH3_SWEEP, _call("tables3", "table_3_3_rows"),
            _rows_table("Table 3.3  Number of different path delay faults"), {
                "every count is non-negative": _every(lambda cell: cell[2] >= 0, _sweep),
                "the selections differ for some circuit and N": lambda rows: _unless(
                    any(v > 0 for _, _, v in _sweep(rows)),
                    "the two selections agree for every circuit and N",
                ),
            },
        ),
        Artifact("3.4", {"circuit": "s298", "n": 5, "max_faults": 5}, _table_3_4, _render_3_4, {
            "at least one fault is compared": lambda value: _unless(
                bool(value[1]), "no fault has both a final and an after-TG delay"
            ),
            "original >= final >= after TG for every fault": _every(
                lambda r: r["after TG"] <= r["final"] + EPS and r["final"] <= r["original"] + EPS,
                lambda value: value[1],
            ),
            "every diff_unit is non-negative": _every(
                lambda r: r["diff_unit"] >= 0, lambda value: value[1]
            ),
        }),
        Artifact(
            "3.5", {"circuits": ("s298", "s344"), "n": 4, "max_tg": 4},
            _call("tables3", "table_3_5_rows"),
            _rows_table("Table 3.5  Path delay comparison", ("Circuit", "Pct. 1 %", "Pct. 2 %")),
            {
                "some circuit has Pct. 1 % > 0": lambda rows: _unless(
                    any(r["Pct. 1 %"] > 0 for r in rows),
                    "no original delay differs from its after-TG delay",
                ),
                "Pct. 2 % > 50 wherever Pct. 1 % > 0 (recalculation moves toward the "
                "after-TG delay)": _every(lambda r: r["Pct. 1 %"] == 0 or r["Pct. 2 %"] > 50),
            },
        ),
        Artifact(
            "4.1", {"target_name": "s298", "length": 20}, _call("tables4", "table_4_1_rows"),
            _render_4_1, {
                "at least one admissible subsequence": lambda value: _unless(
                    bool(value[1]), "no admissible subsequence"
                ),
                "no subsequence spans a violating cycle": _violating_spans,
            },
        ),
        Artifact(
            "4.2", {"targets": ("s27", "s298", "s344")}, _call("tables4", "table_4_2_rows"),
            _rows_table("Table 4.2", ("Circuit", "NPO", "NPI", "NSP", "NSV")), {
                "0 <= NSP <= NPI in every row": _every(lambda r: 0 <= r["NSP"] <= r["NPI"]),
            },
        ),
        Artifact(
            "4.3", _CH4_CLI, _chapter4, _RENDER_4_3,
            {"every target has a buffers row": _buffers_rows, _SWA_CLAIM: _swa_within_bound},
            _POOLED,
        ),
        Artifact(
            "4.4",
            {**_CH4_CLI, "fc_threshold": 95.0, "tree_height": 2,
             "holding_config": _CH4_CLI["config"]},
            _chapter4, _render_4_4, _T44_CHECKS, _POOLED,
        ),
        Artifact(
            "chapter4",
            {
                "targets": ("s298", "s344"),
                "drivers": ("s344", "s641", "s953", "s820"),
                "config": {"segment_length": 120, "time_limit": 15, "rng_seed": 2},
                "n_sequences": 12,
                "func_length": 100,
                "fc_threshold": 95.0,
                "tree_height": 2,
                "holding_config": {"segment_length": 120, "time_limit": 10, "rng_seed": 3},
            },
            _chapter4,
            lambda value: _RENDER_4_3(value[0]) + "\n" + _render_4_4(value),
            {
                "every target has a buffers row": lambda value: _buffers_rows(value[0]),
                _SWA_CLAIM: lambda value: _swa_within_bound(value[0]),
                "FC % <= buffers FC % + 5 in every constrained row (a tendency that "
                "holds at this seed)": lambda value: _near_buffers(value[0]),
                **_T44_CHECKS,
            },
            _POOLED,
        ),
        Artifact(
            "fig1-examples", {"circuit": "s298", "max_paths": 60, "max_tests": 60},
            _fig_1_examples, _render_fig_1_examples, {
                "Fig 1.3: the launch propagates 0->1 to e": lambda r: _unless(
                    r["fig1.3"] == (0, 1), f"e goes {r['fig1.3']}"
                ),
                "Fig 1.4: the example test is robust": lambda r: _unless(
                    _robust(r, "fig1.4"), f"it is {r['fig1.4']!r}"
                ),
                "Fig 1.5: the off-path hazard makes it non-robust": lambda r: _unless(
                    r["fig1.5"] is not None and not _robust(r, "fig1.5"), f"it is {r['fig1.5']!r}"
                ),
                "Figs 1.6/1.7: a non-robust test misses a transition fault on its path":
                    lambda r: _unless(
                        r["fig1.6/1.7"] is not None
                        and r["fig1.6/1.7"][2].line in r["fig1.6/1.7"][0].path.lines,
                        f"found {r['fig1.6/1.7']}",
                    ),
            },
        ),
        Artifact("fig1-scan", {"circuit": "s298"}, _fig_1_scan, _render_fig_1_scan, {
            "skewed-load switches SE at speed, broadside never does": lambda flow: _unless(
                flow["at_speed"] == {"skewed-load": True, "broadside": False},
                f"at speed: {flow['at_speed']}",
            ),
            "insertion adds one mux per flop plus SE": lambda flow: _unless(
                flow["scanned"].num_gates
                == flow["circuit"].num_gates + 1 + 3 * len(flow["circuit"].flops),
                f"{flow['scanned'].num_gates} gates after insertion",
            ),
        }),
        Artifact(
            "fig4-hardware", {"lfsr_stages": 10, "tpg_circuits": ("s298", "wb_dma")},
            _fig_4_hardware, _render_fig_4_hardware, {
                "the LFSR has maximal period 2^n - 1": lambda r: _unless(
                    r["lfsr_period"] == 2 ** r["lfsr_stages"] - 1, f"period {r['lfsr_period']}"
                ),
                "apply fires every 2 cycles, hold enable every 4": lambda r: _unless(
                    r["apply"] == [1, 0] * 4 and r["hold"] == [1, 0, 0, 0] * 2,
                    f"apply {r['apply']}, hold {r['hold']}",
                ),
                "the developed TPG needs fewer flops than [73] on the widest interface":
                    _developed_tpg_smaller,
            },
        ),
        Artifact(
            "ablation-scan-styles", {"circuit": "s298", "backtrack_limit": 64},
            _ablation_scan_styles,
            _rows_table("Ablation: broadside vs skewed-load vs enhanced scan (Section 1.3)"), {
                "enhanced scan detects at least as many faults as broadside": lambda rows: _unless(
                    _by(rows, "style")["enhanced"]["detected"]
                    >= _by(rows, "style")["broadside"]["detected"],
                    "broadside detects more",
                ),
            },
        ),
        Artifact(
            "ablation-signal-patterns",
            {
                "circuit": "s298",
                "n_sequences": 6,
                "length": 80,
                "sequence_seed": 17,
                "config": {"segment_length": 100, "time_limit": 12, "rng_seed": 6},
            },
            _ablation_signal_patterns,
            _rows_table("Ablation: SWA bound vs signal-transition patterns ([90], Section 5.1)"),
            {
                "the pattern rule implies the SWA bound": _every(
                    lambda r: r["peak SWA %"] <= r["SWAfunc %"] + EPS
                ),
                "pattern-bound FC <= SWA-bound FC + 5": lambda rows: _unless(
                    _by(rows, "bound")["signal patterns"]["FC %"]
                    <= _by(rows, "bound")["SWA"]["FC %"] + 5.0,
                    "the pattern bound gains more than 5 points",
                ),
            },
        ),
        Artifact(
            "ablation-weighted-tpg",
            {"circuit": "s344", "config": {"segment_length": 120, "time_limit": 12, "rng_seed": 5}},
            _ablation_weighted_tpg,
            _rows_table("Ablation: input-cube biasing vs COP-derived weights ([84]-[87])"),
            {"both TPGs reach FC above 20%": _every(lambda r: r["FC %"] > 20.0)},
        ),
        Artifact(
            "ndetect",
            {
                "circuit": "s298",
                "config": {"segment_length": 150, "time_limit": 15, "rng_seed": 8},
                "levels": (1, 2, 5, 10, 50),
            },
            _ndetect, _rows_table("n-detection profile of the built-in test set ([60])"), {
                "at least half the detected faults are detected 5 or more times": lambda rows: (
                    _unless(
                        _by(rows, "n")[5]["faults"] >= 0.5 * _by(rows, "n")[1]["faults"],
                        f"{_by(rows, 'n')[5]['faults']} of {_by(rows, 'n')[1]['faults']}",
                    )
                ),
            },
        ),
    )
}
