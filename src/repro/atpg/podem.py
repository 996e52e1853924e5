"""PODEM: path-oriented decision making over a combinational model.

The deterministic test-generation core used by every Chapter 2
sub-procedure.  It targets a single stuck-at fault on a combinational
model (usually the two-frame model of :mod:`repro.atpg.unroll`), under

* *constraints* -- line values any test must satisfy (e.g. the frame-1
  initialization value of a transition fault), and
* *frozen assignments* -- input values fixed by earlier targets during
  dynamic compaction (Section 2.3.4), which the search may use but never
  change.

The decision variables are model inputs only; all internal values follow
by fault-free/faulty forward simulation, which keeps the search sound and
complete over the input space.  Both frames run on the compiled scalar
kernel (:meth:`repro.core.compiled.CompiledCircuit.eval_scalar`), with
:mod:`repro.logic.reference` as their oracle.  Outcomes are
``DETECTED`` (with the input cube), ``UNDETECTABLE`` (search space
exhausted) or ``ABORTED`` (backtrack limit, the paper's "backtracking
limit during test generation for transition faults").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.circuits.gates import GateType, controlling_value
from repro.circuits.netlist import Circuit
from repro.core.compiled import compile_circuit
from repro.faults.models import StuckAtFault
from repro.logic.values import X, ZERO, is_binary

DETECTED = "detected"
UNDETECTABLE = "undetectable"
ABORTED = "aborted"


@dataclass
class PodemResult:
    """Outcome of one PODEM run."""

    status: str
    assignments: dict[str, int] = field(default_factory=dict)
    backtracks: int = 0

    @property
    def detected(self) -> bool:
        return self.status == DETECTED


def simulate_good_faulty(
    circuit: Circuit,
    assignments: Mapping[str, int],
    fault: StuckAtFault,
) -> tuple[dict[str, int], dict[str, int]]:
    """Three-valued good/faulty simulation with the fault site forced.

    Unassigned inputs are X; an assignment to a line that is not a model
    input raises :class:`ValueError`, as in
    :func:`repro.logic.simulator.simulate_comb`.  The faulty frame is a
    copy of the good one with ``fault.line`` forced to ``fault.value``,
    re-evaluated from the schedule position after the site.
    """
    compiled = compile_circuit(circuit)
    good = compiled.x_frame()
    compiled.load_inputs(good, assignments)
    compiled.eval_scalar(good)
    faulty = list(good)
    site = compiled.index[fault.line]
    faulty[site] = fault.value
    compiled.eval_scalar(faulty, max(0, site - compiled.n_sources + 1))
    return compiled.as_dict(good), compiled.as_dict(faulty)


def fault_effect_at(good: Mapping[str, int], faulty: Mapping[str, int], line: str) -> bool:
    """True when the line carries a definite D or D' value."""
    g, f = good[line], faulty[line]
    return is_binary(g) and is_binary(f) and g != f


class Podem:
    """PODEM search over one combinational model."""

    def __init__(
        self,
        model: Circuit,
        observation: list[str] | None = None,
        backtrack_limit: int = 128,
    ):
        self.model = model
        self.observation = observation if observation is not None else list(model.outputs)
        self.backtrack_limit = backtrack_limit
        self._inputs = set(model.comb_input_lines)
        # Static testability guide: input distance of each line, used to
        # prefer easy backtrace branches.
        self._level = model.levels

    # ------------------------------------------------------------------
    def run(
        self,
        fault: StuckAtFault,
        constraints: Mapping[str, int] | None = None,
        frozen: Mapping[str, int] | None = None,
        backtrack_limit: int | None = None,
    ) -> PodemResult:
        """Search for an input cube detecting ``fault``.

        ``constraints`` are (line, value) requirements any test must meet;
        ``frozen`` are immutable pre-assigned input values.
        """
        constraints = dict(constraints or {})
        frozen = dict(frozen or {})
        limit = self.backtrack_limit if backtrack_limit is None else backtrack_limit
        assignments: dict[str, int] = dict(frozen)
        decisions: list[list] = []  # [input, value, flipped]
        backtracks = 0

        while True:
            good, faulty = simulate_good_faulty(self.model, assignments, fault)
            objective = self._objective(fault, constraints, good, faulty)
            if objective == "detected":
                return PodemResult(DETECTED, dict(assignments), backtracks)
            if objective == "conflict":
                target_input = None
            else:
                target_input = self._backtrace(objective, good, frozen)
            if target_input is None:
                # Backtrack.
                while decisions:
                    entry = decisions[-1]
                    if entry[2]:
                        decisions.pop()
                        del assignments[entry[0]]
                    else:
                        entry[1] = 1 - entry[1]
                        entry[2] = True
                        assignments[entry[0]] = entry[1]
                        break
                else:
                    return PodemResult(UNDETECTABLE, {}, backtracks)
                backtracks += 1
                if backtracks > limit:
                    return PodemResult(ABORTED, {}, backtracks)
            else:
                line, value = target_input
                decisions.append([line, value, False])
                assignments[line] = value

    # ------------------------------------------------------------------
    def _objective(
        self,
        fault: StuckAtFault,
        constraints: Mapping[str, int],
        good: Mapping[str, int],
        faulty: Mapping[str, int],
    ):
        """Next (line, value) objective, ``"detected"`` or ``"conflict"``."""
        # 1. Constraint justification.
        for line, value in constraints.items():
            g = good[line]
            if g == X:
                return (line, value)
            if g != value:
                return "conflict"
        # 2. Fault activation.
        g = good[fault.line]
        if g == fault.value:
            return "conflict"
        if g == X:
            return (fault.line, 1 - fault.value)
        # 3. Detection check.
        for obs in self.observation:
            if fault_effect_at(good, faulty, obs):
                return "detected"
        # 4. D-frontier propagation.
        frontier = self._d_frontier(good, faulty)
        if not frontier:
            return "conflict"
        if not self._x_path_exists(frontier, good, faulty):
            return "conflict"
        for gate in frontier:
            nc = controlling_value(gate.gate_type)
            for src in gate.inputs:
                if good[src] == X:
                    if nc is None:
                        return (src, ZERO)  # XOR/XNOR: any binary side value
                    return (src, 1 - nc)
        # Every frontier gate's good-side inputs are assigned yet some
        # output is undetermined: an input carries an unresolved *faulty*
        # X (reconvergent fault effect through an XOR).  Resolve it by
        # assigning any X line in that input's fan-in cone.
        for gate in frontier:
            for src in gate.inputs:
                if faulty[src] == X and good[src] != X:
                    for line in self.model.transitive_fanin(src):
                        if good[line] == X:
                            return (line, ZERO)
        return "conflict"

    def _d_frontier(self, good: Mapping[str, int], faulty: Mapping[str, int]):
        frontier = []
        for gate in self.model.topo_gates:
            og, of = good[gate.name], faulty[gate.name]
            if is_binary(og) and is_binary(of):
                continue  # output resolved (propagated or blocked)
            if any(fault_effect_at(good, faulty, src) for src in gate.inputs):
                frontier.append(gate)
        # Prefer frontier gates closest to an observation point; distance
        # is approximated by logic depth (deeper = closer to outputs).
        frontier.sort(key=lambda g: -self._level[g.name])
        return frontier

    def _x_path_exists(self, frontier, good, faulty) -> bool:
        """Check a potentially-sensitizable path from the frontier to an output."""
        fanout = self.model.fanout
        observation = set(self.observation)
        seen: set[str] = set()
        stack = [g.name for g in frontier]
        while stack:
            line = stack.pop()
            if line in seen:
                continue
            seen.add(line)
            if line in observation:
                return True
            for nxt in fanout.get(line, ()):
                og, of = good[nxt], faulty[nxt]
                if not (is_binary(og) and is_binary(of) and og == of):
                    stack.append(nxt)
        return False

    def _backtrace(
        self,
        objective: tuple[str, int],
        good: Mapping[str, int],
        frozen: Mapping[str, int],
    ) -> tuple[str, int] | None:
        """Map an objective to an unassigned input, or ``None`` if impossible."""
        line, value = objective
        for _ in range(self.model.num_lines + 1):
            if line in self._inputs:
                if line in frozen or good[line] != X:
                    return None
                return (line, value)
            gate = self.model.gates[line]
            gt = gate.gate_type
            x_inputs = [src for src in gate.inputs if good[src] == X]
            if not x_inputs:
                return None
            if gt == GateType.BUF:
                line = gate.inputs[0]
            elif gt == GateType.NOT:
                line, value = gate.inputs[0], 1 - value
            elif gt in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR):
                inverting = gt in (GateType.NAND, GateType.NOR)
                out_needed = (1 - value) if inverting else value
                ctrl = controlling_value(gt)
                if out_needed == 1 - ctrl:
                    # All inputs must take the non-controlling value: pick
                    # the easiest (shallowest) X input.
                    line = min(x_inputs, key=lambda s: self._level[s])
                    value = 1 - ctrl
                else:
                    # One controlling input suffices: pick the easiest.
                    line = min(x_inputs, key=lambda s: self._level[s])
                    value = ctrl
            else:  # XOR / XNOR
                binding = [good[src] for src in gate.inputs if good[src] != X]
                if len(x_inputs) == 1:
                    parity = sum(binding) % 2
                    needed = value if gt == GateType.XOR else 1 - value
                    line, value = x_inputs[0], (needed ^ parity)
                else:
                    line, value = x_inputs[0], ZERO
        return None
