"""Implication engine and necessary assignments.

Necessary assignments are values a test for a fault *must* assign to
circuit lines ([29], Section 2.3.2).  For the ``v -> v'`` transition fault
on line ``g`` they are seeded by ``g = v`` under the first pattern and
``g = v'`` under the second, then closed under simple forward and backward
implications over the two-frame model -- exactly the computation the
Chapter 2 preprocessing procedure and the Chapter 3 input-necessary-
assignment procedure build on.

:func:`imply` computes the fixpoint of:

* forward implication: a gate output takes the three-valued evaluation of
  its inputs;
* backward implication: a binary gate output forces input values when the
  gate function leaves no choice (e.g. AND output 1 forces all inputs 1;
  AND output 0 with all-but-one inputs at 1 forces the last input to 0).

It runs event-driven on the compiled IR
(:meth:`repro.core.compiled.CompiledCircuit.imply_scalar`): a gate is
revisited only when one of its lines changed.  The round-robin sweep it
replaced is kept as the oracle
:func:`repro.logic.reference.imply_reference`.

Returns ``None`` on a 0/1 conflict -- the "conflict between necessary
assignments" that proves a transition path delay fault undetectable
(Fig 2.1).
"""

from __future__ import annotations

from typing import Mapping

from repro.circuits.netlist import Circuit
from repro.core.compiled import compile_circuit
from repro.logic.values import X, is_binary


def imply(circuit: Circuit, assignments: Mapping[str, int]) -> dict[str, int] | None:
    """Close an assignment under forward/backward implications.

    Returns the extended (line -> value) map covering every line, in
    :attr:`Circuit.lines` order, or ``None`` if the assignments are
    contradictory.  Raises :class:`KeyError` on an unknown line.
    """
    compiled = compile_circuit(circuit)
    index = compiled.index
    values = compiled.x_frame()
    for line, v in assignments.items():
        if v == X:
            continue
        i = index.get(line)
        if i is None:
            raise KeyError(f"unknown line {line!r}")
        values[i] = v
    if not compiled.imply_scalar(values):
        return None
    return compiled.as_dict(values)


def merge_assignments(
    a: Mapping[str, int], b: Mapping[str, int]
) -> dict[str, int] | None:
    """Union of two assignment maps; ``None`` on any 0/1 conflict."""
    out = {k: v for k, v in a.items() if v != X}
    for line, v in b.items():
        if v == X:
            continue
        cur = out.get(line, X)
        if cur == X:
            out[line] = v
        elif cur != v:
            return None
    return out


def binary_only(values: Mapping[str, int]) -> dict[str, int]:
    """Filter a valuation down to its binary (0/1) entries."""
    return {k: v for k, v in values.items() if is_binary(v)}
