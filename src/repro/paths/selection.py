"""Critical-path selection via STA with input necessary assignments.

The Chapter 3 procedure (Fig 3.1):

1. Traditional STA produces an initial fault set ``FPo`` of size ``M``
   ranked by delay.
2. Input necessary assignments are computed per fault
   (:mod:`repro.atpg.input_assignments`); faults proven undetectable are
   dropped.  The first ``N`` potentially detectable faults (plus delay
   ties) initialise ``Target_PDF``.
3. For each fault ``fp`` in ``Target_PDF``, STA re-runs under ``fp``'s
   input necessary assignments, yielding the recalculated ("final")
   delay; every potentially detectable fault whose delay under those
   conditions is at least as high as ``fp``'s is added to ``Target_PDF``
   and processed the same way -- the transitive closure of "at least as
   critical as".
4. The ``N`` faults with the highest recalculated delays are selected for
   test generation.

The result object carries everything Tables 3.1-3.5 report: original and
final delays, newly discovered faults, and the divergence between the
traditional and refined selections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.atpg.input_assignments import (
    InputAssignments,
    compute_input_assignments,
)
from repro.atpg.unroll import TwoFrameModel
from repro.circuits.library import TechLibrary
from repro.circuits.netlist import Circuit
from repro.faults.models import PathDelayFault, TransitionPathDelayFault
from repro.sta.engine import CaseAnalysis, StaEngine


def _as_tpdf(fault: PathDelayFault) -> TransitionPathDelayFault:
    return TransitionPathDelayFault(path=fault.path, direction=fault.direction)


@dataclass
class SelectedFault:
    """Bookkeeping for one fault passing through the selection procedure."""

    fault: PathDelayFault
    original_delay: float
    final_delay: float | None = None
    assignments: InputAssignments | None = None
    #: faults first discovered while processing this one (Table 3.1 "new paths")
    discovered: list[PathDelayFault] = field(default_factory=list)
    added_by_procedure: bool = False


@dataclass
class SelectionResult:
    """Outcome of the path-selection procedure."""

    records: dict[PathDelayFault, SelectedFault]
    initial_target: list[PathDelayFault]  # Target_PDF before recalculation
    final_target: list[PathDelayFault]  # Target_PDF after closure
    n_requested: int
    undetectable: list[PathDelayFault]

    @property
    def original_size(self) -> int:
        """|Target_PDF| before delay recalculation (Table 3.2 'original')."""
        return len(self.initial_target)

    @property
    def final_size(self) -> int:
        """|Target_PDF| after the closure (Table 3.2 'final')."""
        return len(self.final_target)

    def select(self, n: int | None = None) -> list[PathDelayFault]:
        """The ``n`` most critical faults by recalculated delay."""
        n = n or self.n_requested
        ordered = sorted(
            self.final_target,
            key=lambda f: -(self.records[f].final_delay or 0.0),
        )
        return ordered[:n]

    def traditional_select(self, n: int | None = None) -> list[PathDelayFault]:
        """The ``n`` most critical *potentially detectable* faults by original delay."""
        n = n or self.n_requested
        ordered = sorted(
            self.initial_target,
            key=lambda f: -self.records[f].original_delay,
        )
        return ordered[:n]

    def unique_to_one_set(self, n: int | None = None) -> int:
        """Faults unique to either selection (Table 3.3's count)."""
        refined = set(self.select(n))
        traditional = set(self.traditional_select(n))
        return len(refined.symmetric_difference(traditional))


class PathSelector:
    """The Fig 3.1 path-selection procedure."""

    def __init__(
        self,
        circuit: Circuit,
        library: TechLibrary | None = None,
        closure_scan: int = 48,
    ):
        self.circuit = circuit
        self.sta = StaEngine(circuit, library)
        self.model = TwoFrameModel.build(circuit)
        self.closure_scan = closure_scan
        self._assignment_cache: dict[PathDelayFault, InputAssignments] = {}

    # ------------------------------------------------------------------
    def assignments_of(self, fault: PathDelayFault) -> InputAssignments:
        """Input necessary assignments of a fault (cached)."""
        if fault not in self._assignment_cache:
            self._assignment_cache[fault] = compute_input_assignments(
                self.model, _as_tpdf(fault)
            )
        return self._assignment_cache[fault]

    def case_of(self, assignments: InputAssignments) -> CaseAnalysis:
        """Case-analysis constants from InNecAssign pairs (Section 3.3.1)."""
        return CaseAnalysis.from_pairs(assignments.paired_inputs())

    # ------------------------------------------------------------------
    def run(
        self, n: int, m: int | None = None, max_pool: int = 4096
    ) -> SelectionResult:
        """Select the ``n`` most critical potentially detectable faults.

        ``m`` is the initial size of the traditional-STA candidate pool
        ``FPo`` (default ``4 * n``).  As in the paper ("if fewer than N
        faults are obtained, M can be increased"), the pool is doubled --
        up to ``max_pool`` -- while fewer than ``n`` candidates survive
        the undetectability screen: on these benchmarks the overwhelming
        majority of the longest paths carry undetectable faults.

        Raises :class:`ValueError` when ``n`` is below 1: the default pool
        would be empty and could never grow, so the doubling loop would
        not end.
        """
        if n < 1:
            raise ValueError(f"n must be a positive path count, got {n!r}")
        m = m or 4 * n
        records: dict[PathDelayFault, SelectedFault] = {}
        undetectable: dict[PathDelayFault, None] = {}  # an insertion-ordered set

        initial: list[PathDelayFault] = []
        nth_delay: float | None = None
        screened: set[PathDelayFault] = set()
        while True:
            pool = self.sta.ranked_faults(m)
            for fault, delay in pool:
                if fault in screened:
                    continue
                screened.add(fault)
                if nth_delay is not None and delay < nth_delay:
                    break
                assignments = self.assignments_of(fault)
                if assignments.undetectable:
                    undetectable[fault] = None
                    continue
                records[fault] = SelectedFault(
                    fault=fault, original_delay=delay, assignments=assignments
                )
                initial.append(fault)
                if len(initial) == n:
                    nth_delay = delay
            if nth_delay is not None or m >= max_pool or len(pool) < m:
                break
            m = min(2 * m, max_pool)

        # Closure: recalculate delays and absorb at-least-as-critical faults.
        target: list[PathDelayFault] = list(initial)
        queue = list(initial)
        in_target = set(target)
        while queue:
            fault = queue.pop(0)
            record = records[fault]
            case = self.case_of(record.assignments)
            pairs = self.sta.propagate_case(case)
            final = self.sta.path_delay(fault, pairs=pairs)
            record.final_delay = final
            if final is None:
                continue
            for other, delay in self.sta.faults_at_least(
                final, case, scan=self.closure_scan
            ):
                if other in in_target or other == fault:
                    continue
                other_assign = self.assignments_of(other)
                if other_assign.undetectable:
                    undetectable[other] = None
                    continue
                original = self.sta.path_delay(other) or 0.0
                records[other] = SelectedFault(
                    fault=other,
                    original_delay=original,
                    assignments=other_assign,
                    added_by_procedure=True,
                )
                record.discovered.append(other)
                in_target.add(other)
                target.append(other)
                queue.append(other)
        return SelectionResult(
            records=records,
            initial_target=initial,
            final_target=target,
            n_requested=n,
            undetectable=list(undetectable),
        )

    # ------------------------------------------------------------------
    def after_tg_delay(self, fault: PathDelayFault) -> float | None:
        """Path delay under a generated test (Table 3.4's "after TG" row).

        Generates a test for the corresponding TPDF (heuristic then branch
        and bound), maps the test's fully-specified input values to case
        constants, and recomputes the delay: every side-input state is
        known, so all state-dependent margins vanish.  Results are cached
        per fault.
        """
        from repro.atpg.tpdf import DETECTED, TpdfPipeline

        if not hasattr(self, "_after_tg_cache"):
            self._after_tg_cache: dict[PathDelayFault, float | None] = {}
        if fault in self._after_tg_cache:
            return self._after_tg_cache[fault]
        report = TpdfPipeline(self.circuit).run([_as_tpdf(fault)])
        outcome = next(iter(report.outcomes.values()))
        if outcome.status != DETECTED or outcome.test is None:
            self._after_tg_cache[fault] = None
            return None
        test = outcome.test
        pins: dict[str, tuple[int, int]] = {}
        for name, a, b in zip(self.circuit.inputs, test.v1, test.v2):
            pins[name] = (a, b)
        for name, a, b in zip(self.circuit.state_lines, test.s1, test.s2):
            pins[name] = (a, b)
        delay = self.sta.path_delay(fault, case=CaseAnalysis(pins=pins))
        self._after_tg_cache[fault] = delay
        return delay
