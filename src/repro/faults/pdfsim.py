"""Path-delay-fault sensitization analysis and TPDF grading.

Two services:

* :func:`classify_sensitization` -- given the two frames of a broadside
  test, classify how the test sensitizes a path delay fault: ``robust``,
  ``strong`` (strong non-robust), ``weak`` (weak non-robust), or ``None``
  (not a test for the fault).  The hierarchy follows Section 1.2 / [7]:
  robust < strong non-robust < weak non-robust in stringency, and every
  class implies the weaker ones.
* :func:`tpdf_detection_words` -- grade transition path delay faults
  against a test set: a TPDF is detected by test ``t`` iff *all* its
  constituent transition faults are detected by ``t`` (Section 2.2), so
  its detection word is the AND of the constituent words.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.circuits.gates import controlling_value
from repro.circuits.netlist import Circuit
from repro.faults.fsim import TransitionFaultSimulator
from repro.faults.models import (
    PathDelayFault,
    TransitionFault,
    TransitionPathDelayFault,
)
from repro.logic.patterns import BroadsideTest
from repro.logic.simulator import simulate_broadside

ROBUST = "robust"
STRONG = "strong"
WEAK = "weak"

_RANK = {None: 0, WEAK: 1, STRONG: 2, ROBUST: 3}


def classify_sensitization(
    circuit: Circuit,
    fault: PathDelayFault,
    frame1: Mapping[str, int],
    frame2: Mapping[str, int],
) -> str | None:
    """Classify a two-pattern test's sensitization of a path delay fault.

    ``frame1``/``frame2`` are full line valuations under the two patterns
    (see :func:`repro.logic.simulator.simulate_broadside`).

    Conditions checked, per Section 1.2:

    * launch: the source line has the fault's transition;
    * weak non-robust: every off-path gate input has a non-controlling
      value under the second pattern (XOR/XNOR side inputs must be binary);
    * strong non-robust: additionally, every on-path line carries the
      polarity-correct transition under the two patterns;
    * robust: additionally, whenever the on-path input transitions from a
      controlling to a non-controlling value, the off-path inputs of that
      gate hold a *steady* non-controlling value (for XOR/XNOR gates the
      side inputs must always be steady).
    """
    path = fault.path
    transitions = fault.transitions(circuit)
    # Launch condition at the source.
    v1, v1p = transitions[0]
    if frame1[path.source] != v1 or frame2[path.source] != v1p:
        return None

    weak_ok = True
    strong_ok = True
    robust_ok = True
    for i in range(1, path.length):
        on_line = path.lines[i]
        prev_line = path.lines[i - 1]
        gate = circuit.gates[on_line]
        ctrl = controlling_value(gate.gate_type)
        vi, vip = transitions[i]
        vprevp = transitions[i - 1][1]
        # Strong non-robust: the polarity-correct transition on every line.
        if frame1[on_line] != vi or frame2[on_line] != vip:
            strong_ok = False
        on_to_controlling = ctrl is not None and vprevp == ctrl
        for off in gate.inputs:
            if off == prev_line:
                continue
            f1, f2 = frame1[off], frame2[off]
            if ctrl is None:
                # XOR/XNOR: sensitized for any binary side value; robust
                # additionally needs the side input steady.
                if f2 not in (0, 1):
                    weak_ok = False
                if f1 != f2 or f1 not in (0, 1):
                    robust_ok = False
            else:
                nc = 1 - ctrl
                if f2 != nc:
                    weak_ok = False
                if not on_to_controlling and (f1 != nc or f2 != nc):
                    # c -> nc on-path transition: side inputs must be
                    # steady non-controlling or a late side transition
                    # could mask the fault.
                    robust_ok = False
        if not weak_ok:
            return None
    if strong_ok and robust_ok:
        return ROBUST
    if strong_ok:
        return STRONG
    return WEAK


def classify_test(
    circuit: Circuit, fault: PathDelayFault, test: BroadsideTest
) -> str | None:
    """Convenience wrapper: simulate both frames, then classify."""
    frame1, frame2 = simulate_broadside(circuit, test)
    return classify_sensitization(circuit, fault, frame1, frame2)


def at_least(classification: str | None, required: str) -> bool:
    """Whether a classification meets or exceeds a required strength."""
    return _RANK[classification] >= _RANK[required]


def tpdf_detection_words(
    circuit: Circuit,
    faults: Sequence[TransitionPathDelayFault],
    tests: Sequence[BroadsideTest],
    simulator: TransitionFaultSimulator | None = None,
    transition_words: Mapping[TransitionFault, int] | None = None,
) -> dict[TransitionPathDelayFault, int]:
    """Detection word per TPDF: the AND over its constituent transition faults.

    Pass ``transition_words`` to reuse previously computed constituent
    detection words (e.g. from grading the transition-fault test set in
    Section 2.3.3).
    """
    constituents: dict[TransitionPathDelayFault, list[TransitionFault]] = {
        f: f.transition_faults(circuit) for f in faults
    }
    if transition_words is None:
        universe: list[TransitionFault] = []
        seen: set[TransitionFault] = set()
        for trs in constituents.values():
            for tr in trs:
                if tr not in seen:
                    seen.add(tr)
                    universe.append(tr)
        simulator = simulator or TransitionFaultSimulator(circuit)
        transition_words = simulator.detection_words(tests, universe)
    full = (1 << len(tests)) - 1
    out: dict[TransitionPathDelayFault, int] = {}
    for fault, trs in constituents.items():
        word = full
        for tr in trs:
            word &= transition_words.get(tr, 0)
            if not word:
                break
        out[fault] = word
    return out


def tpdf_detected_by(
    circuit: Circuit,
    fault: TransitionPathDelayFault,
    test: BroadsideTest,
) -> bool:
    """Whether one test detects one TPDF (all constituent faults detected)."""
    words = tpdf_detection_words(circuit, [fault], [test])
    return bool(words[fault])
