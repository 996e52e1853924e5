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

Each constituent transition fault is closed under implication once per
two-frame model and kept as two bit masks over the model's lines (the
lines it forces to 1 and to 0), so steps 2 and 3 are mask ORs and a
conflict is a line in both masks.  On the longest paths most faults end
there; only a survivor is spelled out as a valuation frame for the
closure and step 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from repro.atpg.unroll import TwoFrameModel
from repro.circuits.gates import controlling_value, inversion_parity
from repro.core.compiled import compile_circuit
from repro.faults.models import RISE, TransitionFault, TransitionPathDelayFault
from repro.logic.values import X, is_binary

UNDETECTABLE = "undetectable"
POTENTIALLY_DETECTABLE = "potentially_detectable"

#: How many unspecified inputs step 4 probes per round (those structurally
#: closest to the path first), keeping the procedure polynomial *and* fast
#: on large models.
STEP4_CANDIDATES = 256


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


# ``bytes.translate`` tables from a valuation frame's 0/1/X bytes to the
# digits of its ones and zeros masks.
_ONES_DIGITS = bytes.maketrans(bytes((0, 1, X)), b"010")
_ZEROS_DIGITS = bytes.maketrans(bytes((0, 1, X)), b"100")


def _bit_indices(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure(model: TwoFrameModel, line: str, v: int) -> tuple[int, int] | None:
    """Necessary assignments of the transition launching ``v`` on ``line``.

    Seeds ``line@1 = v`` and ``line@2 = 1 - v`` on one compiled frame of
    the two-frame model and closes it with
    :meth:`~repro.core.compiled.CompiledCircuit.imply_scalar`.  The result
    is a ``(ones, zeros)`` pair of bit masks over the compiled line
    indices, or ``None`` on a conflict (the transition fault is
    undetectable), memoized on ``model`` (:attr:`TwoFrameModel.na_memo`).
    """
    key = (line, v)
    memo = model.na_memo
    if key in memo:
        return memo[key]
    compiled = compile_circuit(model.model)
    frame = compiled.x_frame()
    seeds = (
        compiled.index[TwoFrameModel.line(line, 1)],
        compiled.index[TwoFrameModel.line(line, 2)],
    )
    frame[seeds[0]] = v
    frame[seeds[1]] = 1 - v
    masks = None
    if compiled.imply_scalar(frame, seeds):
        digits = bytes(reversed(frame))  # most significant digit: the last line
        masks = (int(digits.translate(_ONES_DIGITS), 2), int(digits.translate(_ZEROS_DIGITS), 2))
    memo[key] = masks
    return masks


def transition_fault_na(
    model: TwoFrameModel, fault: TransitionFault
) -> Mapping[str, int] | None:
    """Necessary assignments of one transition fault over the two-frame model.

    Seeds ``g@1 = v`` and ``g@2 = v'`` and closes under implication;
    ``None`` means the fault is undetectable.  The closure is memoized on
    ``model`` as bit masks (:attr:`TwoFrameModel.na_memo`), shared with
    the Section 3.2 screen; the result is a read-only view of its binary
    lines in compiled line order.
    """
    masks = _closure(model, fault.line, fault.initial_value)
    if masks is None:
        return None
    ones, zeros = masks
    names = compile_circuit(model.model).names
    return MappingProxyType(
        {names[i]: (ones >> i) & 1 for i in _bit_indices(ones | zeros)}
    )


def _screen(
    model: TwoFrameModel, fault: TransitionPathDelayFault
) -> tuple[int, int] | None:
    """Steps 2 and 3: the literals of ``DetCon(fp)`` before its closure.

    One walk from the source follows the path's inversion parity, ORs
    each on-path line's memoized necessary-assignment masks into one
    ``(ones, zeros)`` pair, then ORs in the off-path non-controlling
    values under the second pattern.  A line in both masks is a conflict
    between necessary assignments: returns ``None``.
    """
    circuit = model.base
    gates = circuit.gates
    lines = fault.path.lines
    v = 0 if fault.direction == RISE else 1
    ones, zeros = 0, 0
    for i, line in enumerate(lines):
        if i:
            v ^= inversion_parity(gates[line].gate_type)
        masks = _closure(model, line, v)
        if masks is None:
            return None
        ones |= masks[0]
        zeros |= masks[1]
        if ones & zeros:
            return None

    index = compile_circuit(model.model).index
    for prev_line, on_line in zip(lines, lines[1:]):
        gate = gates[on_line]
        ctrl = controlling_value(gate.gate_type)
        if ctrl is None:
            continue  # XOR/XNOR: no single non-controlling value
        for off in gate.inputs:
            if off != prev_line:
                bit = 1 << index[TwoFrameModel.line(off, 2)]
                if ctrl:
                    zeros |= bit
                else:
                    ones |= bit
    if ones & zeros:
        return None
    return ones, zeros


def compute_input_assignments(
    model: TwoFrameModel,
    fault: TransitionPathDelayFault,
    undetectable_transition_faults: Iterable[TransitionFault] = (),
    step4: bool = True,
) -> InputAssignments:
    """Run the four-step procedure for one TPDF.

    Steps 2 and 3 are mask ORs (:func:`_screen`); most faults on the
    longest paths stop there.  A fault that survives them gets
    ``DetCon(fp)`` as one valuation frame of the compiled two-frame
    model, its literals closed with one implication pass; closing the
    union once reaches the same values and conflicts as closing after
    each step, since implication is monotone.  Each step-4 probe closes
    a copy of the closed frame plus one literal, over at most
    :data:`STEP4_CANDIDATES` unspecified inputs per round.
    """
    # Step 1: known-undetectable constituent transition faults.
    undet = set(undetectable_transition_faults)
    if undet and any(tr in undet for tr in fault.transition_faults(model.base)):
        return InputAssignments(status=UNDETECTABLE)

    # Steps 2 and 3: constituent necessary assignments and off-path values.
    literals = _screen(model, fault)
    if literals is None:
        return InputAssignments(status=UNDETECTABLE)
    ones, zeros = literals
    compiled = compile_circuit(model.model)
    index = compiled.index
    det_con = compiled.x_frame()
    seeded: list[int] = []
    for value, mask in ((1, ones), (0, zeros)):
        for i in _bit_indices(mask):
            det_con[i] = value
            seeded.append(i)
    if not compiled.imply_scalar(det_con, seeded):
        return InputAssignments(status=UNDETECTABLE)

    # Step 4: probe unspecified inputs with both values.
    if step4:
        support = _path_support(model, fault)
        inputs = model.model.inputs
        changed = True
        while changed:
            changed = False
            candidates = [line for line, v in zip(inputs, det_con) if v == X]
            candidates.sort(key=lambda l: (l not in support, l))
            for line in candidates[:STEP4_CANDIDATES]:
                i = index[line]
                if det_con[i] != X:
                    continue  # implied by an assignment found this round
                closed0 = det_con.copy()
                closed0[i] = 0
                closed1 = det_con.copy()
                closed1[i] = 1
                ok0 = compiled.imply_scalar(closed0, (i,))
                ok1 = compiled.imply_scalar(closed1, (i,))
                if not ok0 and not ok1:
                    return InputAssignments(status=UNDETECTABLE)
                if not ok0 or not ok1:
                    det_con = closed1 if not ok0 else closed0
                    changed = True

    assignments: dict[tuple[str, int], int] = {}
    for base, frame, line in _input_lines(model):
        v = det_con[index[line]]
        if v != X:
            assignments[(base, frame)] = v
    return InputAssignments(
        status=POTENTIALLY_DETECTABLE,
        det_con={name: v for name, v in zip(compiled.names, det_con) if v != X},
        input_assignments=assignments,
    )


def _path_support(model: TwoFrameModel, fault: TransitionPathDelayFault) -> set[str]:
    """Free inputs structurally relevant to the path (both frames)."""
    inputs = set(model.model.inputs)
    on_path = [
        mline
        for line in fault.path.lines
        for mline in (TwoFrameModel.line(line, 1), TwoFrameModel.line(line, 2))
        if mline in model.model.gates or mline in inputs
    ]
    return model.model.transitive_fanin(*on_path) & inputs
