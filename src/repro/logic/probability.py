"""Signal probability estimation (COP).

The controllability-observability program (COP) propagates per-line
1-probabilities through the netlist under an input-independence
assumption.  Its use here is weight selection for
:class:`repro.bist.weighted.WeightedTpg`: a transition fault whose
launch or capture value has tiny probability escapes pseudo-random
testing, which weighted random pattern generation ([84]-[87]) exists to
catch.

For sequential circuits the state-line probabilities are iterated to a
fixpoint (probabilities of next-state lines feed back as present-state
probabilities), a standard approximation.
"""

from __future__ import annotations

from typing import Mapping

from repro.circuits.gates import GateType
from repro.circuits.netlist import Circuit


def gate_one_probability(gate_type: GateType, p: list[float]) -> float:
    """P(output = 1) under input independence."""
    if gate_type == GateType.BUF:
        return p[0]
    if gate_type == GateType.NOT:
        return 1.0 - p[0]
    if gate_type in (GateType.AND, GateType.NAND):
        prod = 1.0
        for x in p:
            prod *= x
        return prod if gate_type == GateType.AND else 1.0 - prod
    if gate_type in (GateType.OR, GateType.NOR):
        prod = 1.0
        for x in p:
            prod *= 1.0 - x
        return 1.0 - prod if gate_type == GateType.OR else prod
    # XOR / XNOR: combine pairwise.
    acc = p[0]
    for x in p[1:]:
        acc = acc * (1.0 - x) + (1.0 - acc) * x
    return acc if gate_type == GateType.XOR else 1.0 - acc


def signal_probabilities(
    circuit: Circuit,
    input_probabilities: Mapping[str, float] | None = None,
    iterations: int = 8,
) -> dict[str, float]:
    """COP 1-probability of every line.

    ``input_probabilities`` overrides the default 0.5 per primary input;
    state-line probabilities start at 0.5 and iterate through the
    next-state feedback ``iterations`` times (a damping-free fixpoint
    sweep, adequate for testability estimation).
    """
    prob: dict[str, float] = {}
    for pi in circuit.inputs:
        prob[pi] = (input_probabilities or {}).get(pi, 0.5)
    for q in circuit.state_lines:
        prob[q] = 0.5
    for _ in range(max(1, iterations)):
        for gate in circuit.topo_gates:
            prob[gate.name] = gate_one_probability(
                gate.gate_type, [prob[i] for i in gate.inputs]
            )
        for flop in circuit.flops:
            prob[flop.q] = prob[flop.d]
    return prob
