"""Chapter 4 experiments: Tables 4.1 - 4.4.

* 4.1 -- primary input subsequence selection: a trace with its per-cycle
  SWA, the violating cycles marked, and the admissible subsequences;
* 4.2 -- benchmark parameters (N_PO, N_PI, N_SP, N_SV);
* 4.3 -- built-in generation of functional broadside tests under primary
  input constraints, for target x driving-block pairs including the
  unconstrained ``buffers`` baseline;
* 4.4 -- built-in test generation with state holding for the low-coverage
  cases of 4.3.

Pairings follow Section 4.6: a driving block must have at least as many
primary outputs as the target has primary inputs; per target the harness
reports ``buffers`` plus the drivers giving the highest and lowest
``SWA_func``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.bist.tpg import DevelopedTpg
from repro.circuits.benchmarks import get_circuit
from repro.circuits.netlist import Circuit
from repro.circuits.scan import ScanChains
from repro.core.builtin_gen import BuiltinGenConfig, BuiltinGenResult, run_rows, swa_exceeds
from repro.core.embedded import compose, estimate_swa_func
from repro.core.state_holding import HoldingRunResult, run_with_state_holding
from repro.experiments.format import failure_row, render
from repro.experiments.runner import ExperimentTask, TaskFailure, run_tasks
from repro.faults.collapse import collapsed_transition_faults
from repro.logic.simulator import simulate_sequence


def collapsed_faults(circuit: Circuit):
    """The graded fault list: collapsed transition faults (version-cached)."""
    return collapsed_transition_faults(circuit)


# ---------------------------------------------------------------------------
# Table 4.1
# ---------------------------------------------------------------------------


def table_4_1_rows(
    target_name: str,
    length: int,
    seed: int = 11,
    swa_func: float | None = None,
) -> tuple[list[dict], list[tuple[int, int]]]:
    """One trace with per-cycle SWA and the selected subsequences.

    Returns (rows, subsequences); each subsequence is a ``(k, w)`` pair
    meaning ``P(k .. w-1)`` is admissible under the bound.  A cycle
    violates the bound by :func:`repro.core.builtin_gen.swa_exceeds`, the
    rule Fig 4.9 truncates by.
    """
    circuit = get_circuit(target_name)
    tpg = DevelopedTpg.for_circuit(circuit)
    pi_vectors = tpg.sequence(seed, length)
    result = simulate_sequence(
        circuit, [0] * len(circuit.flops), pi_vectors, keep_line_values=False
    )
    if swa_func is None:
        # Pick a bound that splits the trace, as the paper's example does.
        swa_func = sorted(result.switching[1:])[int(0.8 * (length - 1))]
    rows = []
    for i in range(length):
        swa = result.switching[i]
        rows.append(
            {
                "Clock cycle i": i,
                "s(i)": "".join(map(str, result.states[i][:12])),
                "SWA(i)": "-" if i == 0 else round(swa, 2),
                "violation": "**" if i >= 1 and swa_exceeds(swa, swa_func) else "",
            }
        )
    subsequences: list[tuple[int, int]] = []
    start = 0
    for i in range(1, length):
        if swa_exceeds(result.switching[i], swa_func):
            if i - 1 > start:
                subsequences.append((start, i - 1))
            start = i
    if length > start + 1:
        subsequences.append((start, length))
    return rows, subsequences


# ---------------------------------------------------------------------------
# Table 4.2
# ---------------------------------------------------------------------------


def table_4_2_rows(targets: Sequence[str]) -> list[dict]:
    """Rows of Table 4.2: benchmark circuit parameters."""
    rows = []
    for name in targets:
        circuit = get_circuit(name)
        tpg = DevelopedTpg.for_circuit(circuit)
        rows.append(
            {
                "Circuit": name,
                "NPO": len(circuit.outputs),
                "NPI": len(circuit.inputs),
                "NSP": tpg.cube.n_specified,
                "NSV": len(circuit.flops),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 4.3
# ---------------------------------------------------------------------------


@dataclass
class Table43Case:
    """One Table 4.3 row: a target driven by one block."""

    target: str
    driver: str  # "buffers" or a circuit name
    swa_func: float | None
    result: BuiltinGenResult
    lsc: int

    def row(self) -> dict:
        """The Table 4.3 row dict for this case."""
        r = self.result
        return {
            "Circuit": self.target,
            "Lsc": self.lsc,
            "Driving block": self.driver,
            "Nmulti": r.n_multi,
            "Nsegmax": r.n_seg_max,
            "Lmax": r.l_max,
            "SWAfunc %": round(self.swa_func, 2) if self.swa_func is not None else None,
            "Nseeds": r.n_seeds,
            "Ntests": r.n_tests,
            "SWA %": round(r.peak_swa, 2),
            "FC %": round(r.coverage, 2),
            "HW Area (um2)": round(r.area.total),
            "Area Over. %": round(r.area.overhead_percent, 2),
        }


def eligible_drivers(target: Circuit, drivers: Sequence[str]) -> list[str]:
    """Drivers with at least as many outputs as the target has inputs."""
    out = []
    for name in drivers:
        if name == target.name:
            continue
        driver = get_circuit(name)
        if len(driver.outputs) >= len(target.inputs):
            out.append(name)
    # Self-duplication is allowed when the interface permits it.
    self_block = get_circuit(target.name)
    if len(self_block.outputs) >= len(target.inputs):
        out.append(target.name)
    return out


def swa_func_of(
    target: Circuit, driver_name: str, n_sequences: int = 16, length: int = 120
) -> float:
    """SWA_func of a target under one driving block, with the block's own TPG.

    The ``buffers`` row has no bound, so it never asks for one.
    """
    design = compose(get_circuit(driver_name), target)
    return estimate_swa_func(design, n_sequences=n_sequences, length=length).swa_func


def _table_4_3_target(
    target_name: str,
    drivers: Sequence[str],
    config: BuiltinGenConfig,
    n_sequences: int,
    func_length: int,
) -> list[Table43Case]:
    """All Table 4.3 rows of one target circuit (one runner task).

    Module-level so a :class:`repro.experiments.runner.ExperimentTask` can
    pickle it; takes the circuit *name* and loads/compiles its own copy.
    The rows run through :func:`repro.core.builtin_gen.run_rows`, so a
    constrained row reuses the ``buffers`` row's decisions its bound
    admits.
    """
    target = get_circuit(target_name)
    faults = collapsed_faults(target)
    lsc = ScanChains.partition(target).max_length
    candidates = eligible_drivers(target, drivers)
    scored = sorted(
        ((swa_func_of(target, d, n_sequences, func_length), d) for d in candidates),
    )
    chosen: list[tuple[str, float | None]] = [("buffers", None)]
    if scored:
        chosen.append((scored[-1][1], scored[-1][0]))  # highest SWA_func
    if len(scored) > 1:
        chosen.append((scored[0][1], scored[0][0]))  # lowest SWA_func
    results = run_rows(target, faults, [bound for _, bound in chosen], config)
    return [
        Table43Case(
            target=target_name, driver=driver_name, swa_func=bound, result=result, lsc=lsc
        )
        for (driver_name, bound), result in zip(chosen, results)
    ]


#: Table 4.3 column order (fixed so degraded tables render without any row).
TABLE_4_3_COLUMNS = (
    "Circuit", "Lsc", "Driving block", "Nmulti", "Nsegmax", "Lmax",
    "SWAfunc %", "Nseeds", "Ntests", "SWA %", "FC %",
    "HW Area (um2)", "Area Over. %",
)


def run_table_4_3(
    targets: Sequence[str],
    drivers: Sequence[str],
    config: BuiltinGenConfig,
    n_sequences: int = 16,
    func_length: int = 120,
    jobs: int | None = None,
    progress: Callable[[int, ExperimentTask, object], None] | None = None,
    timeout_s: float | None = None,
) -> list[Table43Case | TaskFailure]:
    """Run Table 4.3: per target, ``buffers`` + highest/lowest-SWA drivers.

    ``jobs > 1`` fans the per-target work out over worker processes
    (:func:`repro.experiments.runner.run_tasks`); every target builds its own generator and RNG stream, so the
    returned cases are identical for any ``jobs`` value (same order,
    same contents), and a target's rows do not depend on which other
    targets run beside it.
    ``timeout_s`` is every target's deadline, passed to
    :func:`repro.experiments.runner.run_tasks` unchanged; a target that
    raises, crashes its worker or overruns the deadline comes back as a
    :class:`repro.experiments.runner.TaskFailure` in its slot instead of
    aborting the campaign.  ``progress`` is forwarded to
    :func:`repro.experiments.runner.run_tasks` and fires once per
    resolved target, in target order, with that target's rows (or its
    ``TaskFailure``).
    """
    tasks = [
        ExperimentTask(
            key=f"table4.3/{target_name}",
            fn=_table_4_3_target,
            kwargs={
                "target_name": target_name,
                "drivers": tuple(drivers),
                "config": config,
                "n_sequences": n_sequences,
                "func_length": func_length,
            },
        )
        for target_name in targets
    ]
    groups = run_tasks(tasks, jobs=jobs, progress=progress, timeout_s=timeout_s)
    cases: list[Table43Case | TaskFailure] = []
    for group in groups:
        if isinstance(group, TaskFailure):
            cases.append(group)
        else:
            cases.extend(group)
    return cases


def render_table_4_3(cases: Sequence[Table43Case | TaskFailure]) -> str:
    """Render Table 4.3; failed rows degrade to dashes plus an annotation."""
    columns = list(TABLE_4_3_COLUMNS)
    rows: list[dict] = []
    annotations: list[str] = []
    for case in cases:
        if isinstance(case, TaskFailure):
            label = case.key.rsplit("/", 1)[-1]
            rows.append(failure_row(columns, label))
            annotations.append(f"{label}: {case.describe()}")
        else:
            rows.append(case.row())
    return render(
        "Table 4.3  Built-in test generation considering primary input constraints",
        columns,
        rows,
        annotations=annotations,
        note="buffers = unconstrained primary inputs (no SWA bound)",
    )


# ---------------------------------------------------------------------------
# Table 4.4
# ---------------------------------------------------------------------------


@dataclass
class Table44Case:
    """One Table 4.4 row: state holding applied after a Table 4.3 run."""

    base: Table43Case
    holding: HoldingRunResult
    total_faults: int

    def row(self) -> dict:
        """The Table 4.4 row dict for this case."""
        improvement = 100.0 * len(self.holding.newly_detected) / self.total_faults
        base_area = self.base.result.area
        hold_results = self.holding.per_set_results
        hold_area = hold_results[-1].area if hold_results else base_area
        return {
            "Circuit": self.base.target,
            "Driving block": self.base.driver,
            "Nh": self.holding.n_sets,
            "Nbits": self.holding.n_bits,
            "Nmulti": self.holding.n_multi,
            "Nsegmax": self.holding.n_seg_max,
            "Lmax": self.holding.l_max,
            "Nseeds": self.holding.n_seeds,
            "Ntests": self.holding.n_tests,
            "SWA %": round(self.holding.peak_swa, 2),
            "FC Imp. %": round(improvement, 2),
            "Final FC %": round(self.base.result.coverage + improvement, 2),
            "HW Area (um2)": round(base_area.total + hold_area.state_holding),
            "Area Over. %": round(
                100.0
                * (base_area.total + hold_area.state_holding)
                / base_area.circuit_area,
                2,
            ),
        }


def _table_4_4_case(
    case: Table43Case, tree_height: int, config: BuiltinGenConfig
) -> Table44Case:
    """The Table 4.4 holding pass for one base case (one runner task)."""
    target = get_circuit(case.target)
    faults = collapsed_faults(target)
    fr = [f for f in faults if f not in case.result.detected]
    holding = run_with_state_holding(
        target, fr, case.swa_func, tree_height=tree_height, config=config
    )
    return Table44Case(base=case, holding=holding, total_faults=len(faults))


#: Table 4.4 column order (fixed so degraded tables render without any row).
TABLE_4_4_COLUMNS = (
    "Circuit", "Driving block", "Nh", "Nbits", "Nmulti", "Nsegmax", "Lmax",
    "Nseeds", "Ntests", "SWA %", "FC Imp. %", "Final FC %",
    "HW Area (um2)", "Area Over. %",
)


def run_table_4_4(
    cases: Sequence[Table43Case | TaskFailure],
    fc_threshold: float,
    tree_height: int,
    config: BuiltinGenConfig,
    jobs: int | None = None,
    progress: Callable[[int, ExperimentTask, object], None] | None = None,
    timeout_s: float | None = None,
) -> list[Table44Case | TaskFailure]:
    """Run state holding for every Table 4.3 case below the FC threshold.

    Like :func:`run_table_4_3`, ``jobs`` only changes the wall clock:
    each eligible case is an independent task and results come back in
    case order; ``progress`` fires once per resolved case.  Failed
    Table 4.3 rows (``TaskFailure``) have no base result to improve and
    are skipped; Table 4.4 rows that raise, crash or overrun
    ``timeout_s`` degrade to ``TaskFailure`` in place.
    """
    tasks = [
        ExperimentTask(
            key=f"table4.4/{case.target}/{case.driver}",
            fn=_table_4_4_case,
            kwargs={"case": case, "tree_height": tree_height, "config": config},
        )
        for case in cases
        if isinstance(case, Table43Case) and case.result.coverage < fc_threshold
    ]
    return run_tasks(tasks, jobs=jobs, progress=progress, timeout_s=timeout_s)


def render_table_4_4(cases: Sequence[Table44Case | TaskFailure]) -> str:
    """Render Table 4.4; failed rows degrade to dashes plus an annotation."""
    columns = list(TABLE_4_4_COLUMNS)
    rows: list[dict] = []
    annotations: list[str] = []
    for case in cases:
        if isinstance(case, TaskFailure):
            label = case.key.split("/", 1)[-1]
            rows.append(failure_row(columns, label))
            annotations.append(f"{label}: {case.describe()}")
        else:
            rows.append(case.row())
    return render(
        "Table 4.4  Built-in test generation with state holding",
        columns,
        rows,
        annotations=annotations,
    )
