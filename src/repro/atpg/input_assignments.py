"""Input necessary assignments for transition path delay faults (Section 3.2).

Input necessary assignments ([16]) are the values a test for a fault must
assign to the *inputs* of the combinational logic -- primary inputs and
present-state variables, under both patterns of a broadside test.  They
are computed in polynomial time (implications only, no test generation)
and serve two purposes in Chapter 3:

1. they are fed to the static timing analysis engine as case-analysis
   constants, tightening path delays toward the delays achievable under
   actual tests; and
2. a conflict while deriving them proves the fault undetectable, letting
   the path-selection procedure skip it.

The four-step procedure:

* **Step 1** -- the fault is undetectable if any constituent transition
  fault is (supplied by the caller from the transition-fault ATPG run).
* **Step 2** -- merge the necessary assignments of all constituent
  transition faults into ``DetCon(fp)``; a conflict proves
  undetectability.  Entries on input lines seed ``InNecAssign(fp)``.
* **Step 3** -- add the propagation conditions: every off-path input of an
  on-path gate must take the gate's non-controlling value under the
  second pattern.
* **Step 4** -- for every still-unspecified free input, try both values;
  if both conflict with ``DetCon(fp)`` the fault is undetectable, if one
  conflicts the other is a new input necessary assignment.  Repeats until
  no new assignment is found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

from repro.atpg.implication import binary_only, imply, merge_assignments
from repro.atpg.unroll import TwoFrameModel
from repro.circuits.gates import controlling_value
from repro.faults.models import TransitionFault, TransitionPathDelayFault
from repro.logic.values import X, is_binary

UNDETECTABLE = "undetectable"
POTENTIALLY_DETECTABLE = "potentially_detectable"


@dataclass
class InputAssignments:
    """Result of the input-necessary-assignment procedure for one TPDF."""

    status: str
    #: model-line -> value over the full two-frame model (DetCon closure)
    det_con: dict[str, int] = field(default_factory=dict)
    #: (base-line name, frame) -> value, restricted to primary inputs and
    #: present-state variables -- the paper's InNecAssign(fp) entries
    #: ``q[i]a``.
    input_assignments: dict[tuple[str, int], int] = field(default_factory=dict)

    @property
    def undetectable(self) -> bool:
        return self.status == UNDETECTABLE

    def paired_inputs(self) -> dict[str, tuple[int, int]]:
        """Inputs specified under *both* patterns, as ``(v, w)`` pairs.

        Mirrors the PrimeTime restriction of Section 3.3.1: the STA engine
        receives ``set_case_analysis``-style constants only for lines with
        a value under both patterns (0, 1, rising or falling).
        """
        pairs: dict[str, tuple[int, int]] = {}
        names = {name for (name, _frame) in self.input_assignments}
        for name in names:
            v1 = self.input_assignments.get((name, 1), X)
            v2 = self.input_assignments.get((name, 2), X)
            if is_binary(v1) and is_binary(v2):
                pairs[name] = (v1, v2)
        return pairs


def _input_lines(model: TwoFrameModel) -> list[tuple[str, int, str]]:
    """(base name, frame, model line) for all PI / state lines, both frames."""
    out = []
    for pi in model.base.inputs:
        out.append((pi, 1, TwoFrameModel.line(pi, 1)))
        out.append((pi, 2, TwoFrameModel.line(pi, 2)))
    for q in model.base.state_lines:
        out.append((q, 1, TwoFrameModel.line(q, 1)))
        out.append((q, 2, TwoFrameModel.line(q, 2)))
    return out


def transition_fault_na(
    model: TwoFrameModel, fault: TransitionFault
) -> Mapping[str, int] | None:
    """Necessary assignments of one transition fault over the two-frame model.

    Seeds ``g@1 = v`` and ``g@2 = v'`` and closes under implication;
    ``None`` means the fault is undetectable.  Memoized on ``model``
    (:attr:`TwoFrameModel.na_memo`); the result is a read-only view.
    """
    memo = model.na_memo
    if fault not in memo:
        seed = {
            TwoFrameModel.line(fault.line, 1): fault.initial_value,
            TwoFrameModel.line(fault.line, 2): fault.final_value,
        }
        values = imply(model.model, seed)
        memo[fault] = None if values is None else binary_only(values)
    na = memo[fault]
    return None if na is None else MappingProxyType(na)


def compute_input_assignments(
    model: TwoFrameModel,
    fault: TransitionPathDelayFault,
    undetectable_transition_faults: Iterable[TransitionFault] = (),
    step4: bool = True,
    step4_candidates: int = 256,
) -> InputAssignments:
    """Run the four-step procedure for one TPDF.

    ``step4_candidates`` bounds how many unspecified inputs step 4 probes
    per round (the inputs structurally closest to the path are probed
    first), keeping the procedure polynomial *and* fast on large models.
    """
    circuit = model.base
    constituents = fault.transition_faults(circuit)

    # Step 1: known-undetectable constituent transition faults.
    undet = set(undetectable_transition_faults)
    if any(tr in undet for tr in constituents):
        return InputAssignments(status=UNDETECTABLE)

    # Step 2: merge constituent necessary assignments.
    det_con: dict[str, int] = {}
    for tr in constituents:
        na = transition_fault_na(model, tr)
        if na is None:
            return InputAssignments(status=UNDETECTABLE)
        merged = merge_assignments(det_con, na)
        if merged is None:
            return InputAssignments(status=UNDETECTABLE)
        det_con = merged
    closed = imply(model.model, det_con)
    if closed is None:
        return InputAssignments(status=UNDETECTABLE)
    det_con = binary_only(closed)

    # Step 3: off-path propagation conditions under the second pattern.
    for i in range(1, fault.path.length):
        on_line = fault.path.lines[i]
        prev_line = fault.path.lines[i - 1]
        gate = circuit.gates[on_line]
        ctrl = controlling_value(gate.gate_type)
        if ctrl is None:
            continue  # XOR/XNOR: no single non-controlling value
        for off in gate.inputs:
            if off == prev_line:
                continue
            merged = merge_assignments(
                det_con, {TwoFrameModel.line(off, 2): 1 - ctrl}
            )
            if merged is None:
                return InputAssignments(status=UNDETECTABLE)
            det_con = merged
    closed = imply(model.model, det_con)
    if closed is None:
        return InputAssignments(status=UNDETECTABLE)
    det_con = binary_only(closed)

    # Step 4: probe unspecified inputs with both values.
    if step4:
        support = _path_support(model, fault)
        free = set(model.free_inputs)
        changed = True
        while changed:
            changed = False
            candidates = [
                line
                for line in model.model.inputs
                if line in free and det_con.get(line, X) == X
            ]
            candidates.sort(key=lambda l: (l not in support, l))
            for line in candidates[:step4_candidates]:
                closed0 = imply(model.model, det_con | {line: 0})
                closed1 = imply(model.model, det_con | {line: 1})
                if closed0 is None and closed1 is None:
                    return InputAssignments(status=UNDETECTABLE)
                if closed0 is None or closed1 is None:
                    det_con = binary_only(closed1 if closed0 is None else closed0)
                    changed = True

    inputs: dict[tuple[str, int], int] = {}
    for base, frame, line in _input_lines(model):
        v = det_con.get(line, X)
        if is_binary(v):
            inputs[(base, frame)] = v
    return InputAssignments(
        status=POTENTIALLY_DETECTABLE, det_con=det_con, input_assignments=inputs
    )


def _path_support(model: TwoFrameModel, fault: TransitionPathDelayFault) -> set[str]:
    """Free inputs structurally relevant to the path (both frames)."""
    support: set[str] = set()
    for line in fault.path.lines:
        for frame in (1, 2):
            mline = TwoFrameModel.line(line, frame)
            if mline in model.model.gates or mline in set(model.model.inputs):
                for fan in model.model.transitive_fanin(mline):
                    support.add(fan)
    return {line for line in support if line in set(model.model.inputs)}
