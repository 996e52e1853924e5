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
  selection and for the "paths at least as critical as fp" queries.  A
  :class:`Ranking` grows one case's report as larger K are asked for, so
  the initial selection's pool doubling enumerates and times each path
  once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.circuits.gates import inversion_parity
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
    """Static timing analysis over one circuit and library.

    The engine builds one arc table when it is constructed (:attr:`arcs`):
    for each gate output, the rising and falling arc delays
    (``library.delay`` plus the fan-out load, added in that order), the
    gate's inversion parity and its inputs.  A hop's delay under case
    values is its arc plus ``side_margin`` per side input whose
    two-pattern value is not fully known, so a path is timed in one walk
    from its source.
    """

    def __init__(self, circuit: Circuit, library: TechLibrary | None = None,
                 side_margin: float = SIDE_MARGIN_NS):
        self.circuit = circuit
        self.library = library or DEFAULT_LIBRARY
        self.side_margin = side_margin
        lib = self.library
        fanout = circuit.fanout
        #: gate output -> (rise arc, fall arc, inversion parity, inputs),
        #: in topological order.
        self.arcs: dict[str, tuple[float, float, int, tuple[str, ...]]] = {}
        for gate in circuit.topo_gates:
            fanin = len(gate.inputs)
            load = lib.load_penalty * max(0, len(fanout.get(gate.name, ())) - 1)
            self.arcs[gate.name] = (
                lib.delay(gate.gate_type, fanin, "rise") + load,
                lib.delay(gate.gate_type, fanin, "fall") + load,
                inversion_parity(gate.gate_type),
                gate.inputs,
            )

    # ------------------------------------------------------------------
    def propagate_case(self, case: CaseAnalysis) -> dict[str, tuple[int, int]]:
        """Three-valued two-pattern constant propagation of case values.

        One :func:`simulate_comb` pass per pattern; unpinned inputs are X,
        and a pin on a line that is not an input raises :class:`ValueError`.
        """
        v1 = simulate_comb(self.circuit, {k: p[0] for k, p in case.pins.items()})
        v2 = simulate_comb(self.circuit, {k: p[1] for k, p in case.pins.items()})
        return {line: (v, v2[line]) for line, v in v1.items()}

    def _case_tables(
        self, pairs: Mapping[str, tuple[int, int]]
    ) -> tuple[dict[str, bool], dict[str, int]]:
        """The per-case side-input tables of the hop arithmetic.

        ``unknown`` maps each line to whether its two-pattern value is not
        fully known; ``unknown_pins`` maps each gate output to how many of
        its input pins read such a line.  A hop through input ``prev``
        has ``unknown_pins[gate] - inputs.count(prev)`` unknown side
        inputs when ``prev`` itself is unknown, else ``unknown_pins[gate]``.
        """
        unknown = {
            line: not (is_binary(p1) and is_binary(p2))
            for line, (p1, p2) in pairs.items()
        }
        unknown_pins = {
            line: sum(unknown[src] for src in entry[3])
            for line, entry in self.arcs.items()
        }
        return unknown, unknown_pins

    # ------------------------------------------------------------------
    def path_delay(
        self,
        fault: PathDelayFault,
        case: CaseAnalysis | None = None,
        pairs: Mapping[str, tuple[int, int]] | None = None,
    ) -> float | None:
        """Delay of a path delay fault under case-analysis constants.

        One walk from the source carries the on-path transition
        ``(v, 1 - v)`` through each gate's inversion parity and adds each
        hop's rising (``v == 0``) or falling arc plus its unknown-side
        margins.  Returns ``None`` when the case values block the path:
        some on-path line's propagated constant is incompatible with the
        transition the fault needs there (a false path under these
        conditions).
        """
        if pairs is None:
            pairs = self.propagate_case(case or CaseAnalysis.empty())
        return self._walk(fault, pairs, *self._case_tables(pairs))

    def _walk(
        self,
        fault: PathDelayFault,
        pairs: Mapping[str, tuple[int, int]],
        unknown: Mapping[str, bool],
        unknown_pins: Mapping[str, int],
    ) -> float | None:
        """:meth:`path_delay` over one case's :meth:`_case_tables`."""
        lines = fault.path.lines
        arcs = self.arcs
        margin = self.side_margin
        v = 0 if fault.direction == RISE else 1
        prev = lines[0]
        # A known pattern value other than the transition's blocks the path.
        have1, have2 = pairs[prev]
        if have1 == v ^ 1 or have2 == v:
            return None
        total = 0.0
        for line in lines[1:]:
            rise, fall, parity, inputs = arcs[line]
            v ^= parity
            have1, have2 = pairs[line]
            if have1 == v ^ 1 or have2 == v:
                return None
            unknown_sides = unknown_pins[line]
            if unknown[prev]:
                unknown_sides -= inputs.count(prev)
            total += (fall if v else rise) + unknown_sides * margin
            prev = line
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
        unknown, unknown_pins = self._case_tables(pairs)
        margin = self.side_margin
        arrival: dict[str, float] = {
            line: 0.0 for line in self.circuit.comb_input_lines
        }
        for line, (rise, fall, _, inputs) in self.arcs.items():
            worst = 0.0
            for src in inputs:
                unknown_sides = unknown_pins[line]
                if unknown[src]:
                    unknown_sides -= inputs.count(src)
                hop = max(rise + unknown_sides * margin, fall + unknown_sides * margin)
                worst = max(worst, arrival[src] + hop)
            arrival[line] = worst
        return arrival

    # ------------------------------------------------------------------
    def ranking(
        self, case: CaseAnalysis | None = None, overscan: int = 4
    ) -> "Ranking":
        """A ranked path report under the case values, grown on demand."""
        return Ranking(self, case or CaseAnalysis.empty(), overscan)

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
        window), compute each direction's exact delay, sort.  A gate's
        enumeration weight, computed once per report, is its worse arc
        with every input counted as an unknown side input, or ``-inf``
        when the case values hold its output constant (its arcs are
        disabled).  One call is ``self.ranking(case, overscan).top(k)``.
        """
        return self.ranking(case, overscan).top(k)

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


class Ranking:
    """One case's ranked path report, grown as larger reports are asked for.

    :meth:`top` returns exactly :meth:`StaEngine.ranked_faults` for the
    same case and ``overscan``: the stable sort by delay of both
    directions of the first ``max(k * overscan, k + 8)`` longest paths
    under the case's enumeration weights.  The paths come from one
    :func:`~repro.paths.enumeration.longest_paths` generator and each is
    timed once, when it is first drawn, so asking for a growing ``k`` (the
    Fig 3.1 pool doubling) enumerates and times every path once.  Hold a
    ranking only as long as its ``k`` keeps growing: it keeps the
    generator's frontier and every timed fault alive.
    """

    def __init__(self, engine: StaEngine, case: CaseAnalysis, overscan: int):
        from repro.paths.enumeration import longest_paths

        self.engine = engine
        self.overscan = overscan
        pairs = engine.propagate_case(case)
        unknown, unknown_pins = engine._case_tables(pairs)
        self._tables = (pairs, unknown, unknown_pins)
        margin = engine.side_margin
        weights = dict.fromkeys(engine.circuit.comb_input_lines, 0.0)
        for line, unknown_sides in unknown_pins.items():
            p1, p2 = pairs[line]
            if is_binary(p1) and p1 == p2:
                weights[line] = float("-inf")  # constant line: arcs disabled
            else:
                rise, fall, _, _ = engine.arcs[line]
                weights[line] = max(
                    rise + unknown_sides * margin, fall + unknown_sides * margin
                )
        self._paths = longest_paths(engine.circuit, weights.__getitem__)
        #: (fault, delay) of every drawn path's unblocked directions, in
        #: path order, and ``len(self._timed)`` after each drawn path.
        self._timed: list[tuple[PathDelayFault, float]] = []
        self._ends: list[int] = []

    def top(self, k: int) -> list[tuple[PathDelayFault, float]]:
        """The ``k`` most critical path delay faults (up to ``2 * k`` entries)."""
        want = max(k * self.overscan, k + 8)
        walk = self.engine._walk
        while len(self._ends) < want:
            path = next(self._paths, None)
            if path is None:
                break
            for direction in (RISE, FALL):
                fault = PathDelayFault(path=path, direction=direction)
                delay = walk(fault, *self._tables)
                if delay is not None:
                    self._timed.append((fault, delay))
            self._ends.append(len(self._timed))
        drawn = min(want, len(self._ends))
        end = self._ends[drawn - 1] if drawn > 0 else 0
        ranked = sorted(self._timed[:end], key=lambda item: -item[1])
        return ranked[: 2 * k]
