"""Primary input cube computation (Section 4.3, repeated synchronization).

Repeated synchronization ([88]) occurs when a primary input value forces
state variables to fixed values; if the pseudo-random primary input
sequence produces that value often, the forced state values recur and
faults depending on other state values escape detection.  The TPG
therefore biases each primary input toward the value that synchronizes
*fewer* state variables.

The software procedure from the paper: assign 0 (then 1) to input ``i``
with every other input and all present-state variables unspecified, count
the specified next-state variables after three-valued simulation, and set

* ``C(i) = 0`` if 0 synchronizes fewer state variables than 1,
* ``C(i) = 1`` if 1 synchronizes fewer, or
* ``C(i) = x`` on a tie.

``N_SP`` -- the number of specified entries of ``C`` -- sizes the TPG's
biasing gates and shift register (Table 4.2's ``N_SP`` column).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.netlist import Circuit
from repro.logic.simulator import simulate_comb
from repro.logic.values import X, is_binary


@dataclass(frozen=True)
class InputCube:
    """The primary input cube ``C``: one value (0/1/x) per primary input."""

    values: tuple[int, ...]

    @property
    def n_specified(self) -> int:
        """The paper's ``N_SP``: number of inputs with a specified value."""
        return sum(1 for v in self.values if is_binary(v))

    def value_of(self, input_index: int) -> int:
        """C(i) for primary input ``i``."""
        return self.values[input_index]


def synchronization_count(circuit: Circuit, pi_name: str, value: int) -> int:
    """Number of next-state variables specified when one input is assigned."""
    values = simulate_comb(circuit, {pi_name: value})
    return sum(1 for d in circuit.next_state_lines if is_binary(values[d]))


def compute_input_cube(circuit: Circuit) -> InputCube:
    """Compute the primary input cube ``C`` for a circuit, memoized.

    Every TPG built for a circuit (each Table 4.3 row, holding pass and
    SWA_func estimate) needs the same cube, so it is cached per
    :attr:`Circuit.version`, like
    :func:`repro.faults.collapse.collapsed_transition_faults`: a netlist
    edit recomputes it.
    """
    cached = getattr(circuit, "_input_cube", None)
    version = circuit.version
    if cached is not None and cached[0] == version:
        return cached[1]
    cube: list[int] = []
    for pi in circuit.inputs:
        sync0 = synchronization_count(circuit, pi, 0)
        sync1 = synchronization_count(circuit, pi, 1)
        if sync0 < sync1:
            cube.append(0)
        elif sync1 < sync0:
            cube.append(1)
        else:
            cube.append(X)
    result = InputCube(values=tuple(cube))
    circuit._input_cube = (version, result)
    return result
