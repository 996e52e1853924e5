"""Pre-refactor scalar reference implementations (semantic ground truth).

These are the original dict-based, string-keyed simulation and
implication routines the repository shipped before the compiled circuit
IR (:mod:`repro.core.compiled`) became the shared evaluation core.  They
are deliberately kept byte-for-byte simple -- one dict lookup per gate
input, `Circuit.topo_gates` walked per call -- and serve two purposes:

* **oracle**: ``tests/test_compiled.py`` property-checks the compiled
  scalar kernel, the bit-parallel word kernel, and the PPSFP fault-grading
  verdicts against these functions on random circuits, and
  ``tests/test_implication.py`` checks the event-driven
  :func:`repro.atpg.implication.imply` against :func:`imply_reference`;
  the unforced/forced pair is PODEM's oracle, at every fault site and
  decision by decision (``tests/test_podem.py``);
* **regrade**: ``benchmarks/e2e`` regrades a fault sample of a Table 4.3
  row with :func:`grade_transition_faults_reference` and compares the
  detected sets with the PPSFP grader's.

Nothing on a hot path may import this module.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.circuits.gates import GateType, controlling_value, evaluate
from repro.circuits.netlist import Circuit
from repro.faults.models import TransitionFault
from repro.logic.patterns import BroadsideTest
from repro.logic.simulator import SequenceResult
from repro.logic.values import X


def simulate_comb_reference(
    circuit: Circuit, input_values: Mapping[str, int]
) -> dict[str, int]:
    """The seed ``simulate_comb``: dict-based three-valued evaluation.

    Unknown keys are silently discarded, as the seed did (the refactored
    :func:`repro.logic.simulator.simulate_comb` raises instead).
    """
    values: dict[str, int] = {line: X for line in circuit.comb_input_lines}
    values.update((k, v) for k, v in input_values.items() if k in values)
    for gate in circuit.topo_gates:
        values[gate.name] = evaluate(gate.gate_type, [values[i] for i in gate.inputs])
    return values


def simulate_comb_forced_reference(
    circuit: Circuit,
    input_values: Mapping[str, int],
    line: str,
    forced_value: int,
) -> dict[str, int]:
    """Scalar evaluation with one line forced to a constant (fault injection)."""
    values: dict[str, int] = {l: X for l in circuit.comb_input_lines}
    values.update((k, v) for k, v in input_values.items() if k in values)
    if line in values:
        values[line] = forced_value
    for gate in circuit.topo_gates:
        if gate.name == line:
            values[gate.name] = forced_value
        else:
            values[gate.name] = evaluate(
                gate.gate_type, [values[i] for i in gate.inputs]
            )
    return values


def simulate_sequence_reference(
    circuit: Circuit,
    initial_state: Sequence[int],
    pi_vectors: Sequence[Sequence[int]],
    keep_line_values: bool = True,
) -> SequenceResult:
    """The seed ``simulate_sequence``: per-cycle dicts and dict-diff SWA."""
    state = tuple(initial_state)
    if len(state) != len(circuit.flops):
        raise ValueError(
            f"initial state has {len(state)} bits, circuit has {len(circuit.flops)} flops"
        )
    states = [state]
    all_values: list[dict[str, int]] = []
    switching: list[float] = []
    prev_values: dict[str, int] | None = None
    n_lines = circuit.num_lines
    for p in pi_vectors:
        values = simulate_comb_reference(
            circuit,
            dict(zip(circuit.inputs, p)) | dict(zip(circuit.state_lines, state)),
        )
        if prev_values is None:
            switching.append(0.0)
        else:
            changed = sum(1 for line, v in values.items() if v != prev_values[line])
            switching.append(100.0 * changed / n_lines)
        state = tuple(values[f.d] for f in circuit.flops)
        states.append(state)
        if keep_line_values:
            all_values.append(values)
        prev_values = values
    return SequenceResult(states=states, line_values=all_values, switching=switching)


def _observation_lines(circuit: Circuit) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for line in circuit.observation_lines:
        if line not in seen:
            seen.add(line)
            out.append(line)
    return out


def detects_transition_reference(
    circuit: Circuit, test: BroadsideTest, fault: TransitionFault
) -> bool:
    """Scalar two-frame transition-fault check (fully specified tests only).

    Mirrors the PPSFP semantics of :mod:`repro.faults.fsim`: the first
    pattern must set the fault line to the initial transition value, the
    second pattern's fault-free value must be the final value, and forcing
    the line to its stuck value in the second frame must flip a primary
    output or next-state line.
    """
    frame1 = simulate_comb_reference(
        circuit,
        dict(zip(circuit.inputs, test.v1)) | dict(zip(circuit.state_lines, test.s1)),
    )
    frame2_inputs = dict(zip(circuit.inputs, test.v2)) | dict(
        zip(circuit.state_lines, test.s2)
    )
    frame2 = simulate_comb_reference(circuit, frame2_inputs)
    g = fault.line
    if frame1[g] != fault.initial_value or frame2[g] != fault.final_value:
        return False
    faulty = simulate_comb_forced_reference(
        circuit, frame2_inputs, g, fault.stuck_value
    )
    return any(faulty[obs] != frame2[obs] for obs in _observation_lines(circuit))


def grade_transition_faults_reference(
    circuit: Circuit,
    tests: Sequence[BroadsideTest],
    faults: Sequence[TransitionFault],
) -> set[TransitionFault]:
    """Scalar fault grading: the pre-refactor one-test-at-a-time path.

    Quadratic in (tests x faults) with full per-test scalar resimulation --
    exactly the workload the compiled bit-parallel grader replaces, and the
    oracle the end-to-end benchmark regrades its tests with.
    """
    detected: set[TransitionFault] = set()
    for fault in faults:
        for test in tests:
            if detects_transition_reference(circuit, test, fault):
                detected.add(fault)
                break
    return detected


def imply_reference(
    circuit: Circuit, assignments: Mapping[str, int]
) -> dict[str, int] | None:
    """The seed ``imply``: forward/backward sweeps until nothing changes.

    Every round evaluates all gates forward in topological order, then
    applies backward implication to all gates in reverse order.  Same
    contract as :func:`repro.atpg.implication.imply`: the closed map over
    :attr:`Circuit.lines`, ``None`` on a 0/1 conflict, :class:`KeyError`
    on an unknown line.
    """
    values: dict[str, int] = {line: X for line in circuit.lines}
    for line, v in assignments.items():
        if v == X:
            continue
        if line not in values:
            raise KeyError(f"unknown line {line!r}")
        values[line] = v

    topo = circuit.topo_gates
    changed = True
    while changed:
        changed = False
        # Forward pass.
        for gate in topo:
            out = evaluate(gate.gate_type, [values[i] for i in gate.inputs])
            cur = values[gate.name]
            if out != X:
                if cur == X:
                    values[gate.name] = out
                    changed = True
                elif cur != out:
                    return None
        # Backward pass.
        for gate in reversed(topo):
            r = _imply_backward(gate, values)
            if r is None:
                return None
            changed = changed or r
    # The loop only exits after a full forward+backward iteration makes no
    # change, so the result is a conflict-free fixpoint.
    return values


def _set(values: dict[str, int], line: str, v: int) -> bool | None:
    """Assign with conflict detection: True if changed, None on conflict."""
    cur = values[line]
    if cur == X:
        values[line] = v
        return True
    if cur != v:
        return None
    return False


def _imply_backward(gate, values: dict[str, int]) -> bool | None:
    """Backward implication for one gate; None on conflict."""
    out = values[gate.name]
    if out == X:
        return False
    gt = gate.gate_type
    if gt == GateType.BUF:
        r = _set(values, gate.inputs[0], out)
    elif gt == GateType.NOT:
        r = _set(values, gate.inputs[0], 1 - out)
    elif gt in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR):
        ctrl = controlling_value(gt)
        inverting = gt in (GateType.NAND, GateType.NOR)
        controlled_out = ctrl if not inverting else 1 - ctrl
        if out != controlled_out:
            # Output at the non-controlled value: every input must be
            # non-controlling.
            r = False
            for src in gate.inputs:
                s = _set(values, src, 1 - ctrl)
                if s is None:
                    return None
                r = r or s
        else:
            # Output at the controlled value: if exactly one input is
            # still X and all others are non-controlling, it must be
            # controlling.
            unknown = [s for s in gate.inputs if values[s] == X]
            if len(unknown) == 1 and all(
                values[s] == 1 - ctrl for s in gate.inputs if s != unknown[0]
            ):
                r = _set(values, unknown[0], ctrl)
            else:
                r = False
    else:  # XOR / XNOR
        unknown = [s for s in gate.inputs if values[s] == X]
        if len(unknown) == 1:
            parity = sum(values[s] for s in gate.inputs if s != unknown[0]) % 2
            needed = out if gt == GateType.XOR else 1 - out
            r = _set(values, unknown[0], needed ^ parity)
        else:
            r = False
    if r is None:
        return None
    return bool(r)
