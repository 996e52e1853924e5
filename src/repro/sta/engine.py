"""Static timing analysis with case analysis (the PrimeTime stand-in).

Chapter 3 feeds *input necessary assignments* back into STA as
``set_case_analysis`` constants to obtain path delays closer to those
achievable under real tests.  This engine reproduces the tool behaviour
the procedure relies on:

* **Case analysis** -- each constrained input carries a two-pattern value
  pair (``0``/``1``/``rising``/``falling``); pairs are propagated through
  the logic with three-valued simulation (one compiled ``simulate_comb``
  pass per pattern), so downstream lines may become constants, disabling
  their timing arcs (false-path pruning).
* **State-dependent delay margins** -- a cell's delay through a pin
  depends on the state of its side inputs.  Real libraries expose this as
  state-dependent timing arcs, and a traditional STA run, knowing
  nothing about side-input values, must take the worst case.  We model it
  as a per-side-input ``side_margin`` added for every side input whose
  two-pattern value is *unknown*.  Consequences, matching Section 3.4:
  delays under case analysis never increase, usually decrease, and the
  fully-specified valuation of a generated test gives the smallest
  ("after TG") delay.
* **Ranked path reports** -- the K most critical path delay faults under
  the active case analysis, used both for the traditional initial
  selection and for the "paths at least as critical as fp" queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.circuits.library import DEFAULT_LIBRARY, TechLibrary
from repro.circuits.netlist import Circuit
from repro.faults.models import FALL, PathDelayFault, RISE
from repro.logic.simulator import simulate_comb
from repro.logic.values import is_binary

#: Extra delay per side input with unknown state (ns); the "traditional
#: STA pessimism" the input necessary assignments remove.
SIDE_MARGIN_NS = 0.02

# set_case_analysis vocabulary (Section 3.3.1).
CASE_ZERO = (0, 0)
CASE_ONE = (1, 1)
CASE_RISING = (0, 1)
CASE_FALLING = (1, 0)


@dataclass(frozen=True)
class CaseAnalysis:
    """A set of ``set_case_analysis`` constants on input lines."""

    pins: dict[str, tuple[int, int]] = field(default_factory=dict)

    @staticmethod
    def from_pairs(pairs: Mapping[str, tuple[int, int]]) -> "CaseAnalysis":
        """Build from (line -> (v1, v2)) pairs, e.g. InNecAssign pairs."""
        return CaseAnalysis(pins=dict(pairs))

    @staticmethod
    def empty() -> "CaseAnalysis":
        """No constants: traditional static timing analysis."""
        return CaseAnalysis(pins={})


class StaEngine:
    """Static timing analysis over one circuit and library."""

    def __init__(self, circuit: Circuit, library: TechLibrary | None = None,
                 side_margin: float = SIDE_MARGIN_NS):
        self.circuit = circuit
        self.library = library or DEFAULT_LIBRARY
        self.side_margin = side_margin

    # ------------------------------------------------------------------
    def propagate_case(self, case: CaseAnalysis) -> dict[str, tuple[int, int]]:
        """Three-valued two-pattern constant propagation of case values.

        One :func:`simulate_comb` pass per pattern; unpinned inputs are X,
        and a pin on a line that is not an input raises :class:`ValueError`.
        """
        v1 = simulate_comb(self.circuit, {k: p[0] for k, p in case.pins.items()})
        v2 = simulate_comb(self.circuit, {k: p[1] for k, p in case.pins.items()})
        return {line: (v, v2[line]) for line, v in v1.items()}

    # ------------------------------------------------------------------
    def hop_delay(
        self,
        gate_output: str,
        edge: str,
        pairs: Mapping[str, tuple[int, int]],
        through: str,
    ) -> float:
        """Delay contribution of one path hop under the active case values.

        ``edge`` is the output transition (``rise``/``fall``).  Every side
        input whose two-pattern value is not fully known adds
        ``side_margin`` of state-dependent pessimism; a steady known load
        adds nothing beyond the base arc and fan-out load.
        """
        gate = self.circuit.gates[gate_output]
        base = self.library.delay(gate.gate_type, len(gate.inputs), edge)
        load = self.library.load_penalty * max(0, len(self.circuit.fanout.get(gate_output, ())) - 1)
        unknown_sides = 0
        for src in gate.inputs:
            if src == through:
                continue
            p1, p2 = pairs[src]
            if not (is_binary(p1) and is_binary(p2)):
                unknown_sides += 1
        return base + load + unknown_sides * self.side_margin

    def path_delay(
        self,
        fault: PathDelayFault,
        case: CaseAnalysis | None = None,
        pairs: Mapping[str, tuple[int, int]] | None = None,
    ) -> float | None:
        """Delay of a path delay fault under case-analysis constants.

        Returns ``None`` when the case values block the path: some on-path
        line's propagated constant is incompatible with the transition the
        fault needs there (a false path under these conditions).
        """
        if pairs is None:
            pairs = self.propagate_case(case or CaseAnalysis.empty())
        path = fault.path
        # Source compatibility.
        want1, want2 = fault.on_path_transition(self.circuit, 0)
        have1, have2 = pairs[path.source]
        if (is_binary(have1) and have1 != want1) or (is_binary(have2) and have2 != want2):
            return None
        total = 0.0
        for i in range(1, path.length):
            line = path.lines[i]
            want1, want2 = fault.on_path_transition(self.circuit, i)
            have1, have2 = pairs[line]
            if (is_binary(have1) and have1 != want1) or (
                is_binary(have2) and have2 != want2
            ):
                return None
            edge = "rise" if want2 == 1 else "fall"
            total += self.hop_delay(line, edge, pairs, through=path.lines[i - 1])
        return total

    # ------------------------------------------------------------------
    def worst_arrival(
        self, case: CaseAnalysis | None = None
    ) -> dict[str, float]:
        """Worst-case arrival time at every line (classic STA report).

        ``arrival(g) = max over inputs (arrival(in) + hop delay)`` using
        the worse of the rise/fall arcs, with state-dependent margins per
        unknown side input.  This upper-bounds any event chain a timed
        simulation can produce, including hazard (glitch) propagation
        along statically non-transitioning paths.
        """
        pairs = self.propagate_case(case or CaseAnalysis.empty())
        arrival: dict[str, float] = {
            line: 0.0 for line in self.circuit.comb_input_lines
        }
        for gate in self.circuit.topo_gates:
            worst = 0.0
            for src in gate.inputs:
                hop = max(
                    self.hop_delay(gate.name, "rise", pairs, through=src),
                    self.hop_delay(gate.name, "fall", pairs, through=src),
                )
                worst = max(worst, arrival[src] + hop)
            arrival[gate.name] = worst
        return arrival

    # ------------------------------------------------------------------
    def ranked_faults(
        self,
        k: int,
        case: CaseAnalysis | None = None,
        overscan: int = 4,
    ) -> list[tuple[PathDelayFault, float]]:
        """The ``k`` most critical path delay faults under the case values.

        Mirrors the PrimeTime ranked path report: enumerate candidate
        paths in structural-delay order (``overscan * k`` of them, so
        direction-specific effects cannot push a critical fault out of the
        window), compute each direction's exact delay, sort.
        """
        from repro.paths.enumeration import k_longest_paths

        pairs = self.propagate_case(case or CaseAnalysis.empty())

        def weight(line: str) -> float:
            gate = self.circuit.gates.get(line)
            if gate is None:
                return 0.0
            p1, p2 = pairs[line]
            if is_binary(p1) and p1 == p2:
                return float("-inf")  # constant line: arcs disabled
            rise = self.hop_delay(line, "rise", pairs, through="")
            fall = self.hop_delay(line, "fall", pairs, through="")
            return max(rise, fall)

        candidates = k_longest_paths(self.circuit, k=max(k * overscan, k + 8), delay_fn=weight)
        ranked: list[tuple[PathDelayFault, float]] = []
        for path in candidates:
            for direction in (RISE, FALL):
                fault = PathDelayFault(path=path, direction=direction)
                delay = self.path_delay(fault, pairs=pairs)
                if delay is not None:
                    ranked.append((fault, delay))
        ranked.sort(key=lambda item: -item[1])
        return ranked[: 2 * k]

    def faults_at_least(
        self,
        threshold: float,
        case: CaseAnalysis,
        scan: int = 64,
    ) -> list[tuple[PathDelayFault, float]]:
        """Path delay faults whose delay under ``case`` is >= ``threshold``.

        This is the Section 3.3.2 query: after recalculating ``fp``'s
        delay under its input necessary assignments, find the other paths
        that are at least as critical under the same conditions.
        """
        ranked = self.ranked_faults(scan, case=case)
        return [(f, d) for f, d in ranked if d >= threshold - 1e-12]
