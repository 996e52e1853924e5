"""Hardware area model for the on-chip test generation logic.

Reproduces the area-overhead columns of Tables 4.3 and 4.4.  Following
Section 4.6, the MISR and the primary-input shift register are *not*
charged to the method (an embedded block's inputs are register-driven and
those registers are reused); charged are:

* the fixed LFSR (``N_LFSR`` flops + feedback XORs),
* extra shift-register bits and the AND/OR biasing gates inserted for
  inputs specified in the primary input cube, each priced as an
  ``m``-input gate (``TpgStructure.m``, the TPG's widest tree),
* all counters (clock cycle, shift, segment, sequence, optional set),
* the apply/hold NOR taps, comparators and the controller FSM,
* per holding set: a latch-based clock-gating cell, its share of the
  decoder, and the enable distribution OR (Fig 4.10/4.13),
* seed storage (each selected LFSR seed is an on-chip constant; modelled
  as ROM bits at a fraction of a flop's area).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bist.counters import ControllerCounters, counter_bits
from repro.bist.tpg import TpgStructure
from repro.circuits.library import DEFAULT_LIBRARY, TechLibrary
from repro.circuits.netlist import Circuit
from repro.circuits.gates import GateType

#: Rough controller FSM cost (states for seed load / SR init / circuit
#: init / apply / circular shift): flops + random logic gates.
CONTROLLER_FLOPS = 3
CONTROLLER_GATES = 24

#: ROM bit area as a fraction of a flip-flop (dense storage).
ROM_BIT_AREA_FRACTION = 0.12


@dataclass(frozen=True)
class AreaReport:
    """Area breakdown (um^2) of the BIST hardware."""

    lfsr: float
    tpg_bias: float
    counters: float
    controller: float
    seed_storage: float
    state_holding: float
    circuit_area: float

    @property
    def total(self) -> float:
        """Total BIST hardware area."""
        return (
            self.lfsr
            + self.tpg_bias
            + self.counters
            + self.controller
            + self.seed_storage
            + self.state_holding
        )

    @property
    def overhead_percent(self) -> float:
        """Area overhead as a percentage of the circuit's own area."""
        if self.circuit_area <= 0:
            return 0.0
        return 100.0 * self.total / self.circuit_area


def estimate_area(
    circuit: Circuit,
    tpg: TpgStructure,
    counters: ControllerCounters,
    n_seeds: int,
    n_lfsr: int = 32,
    n_hold_sets: int = 0,
    n_held_bits: int = 0,
    library: TechLibrary | None = None,
) -> AreaReport:
    """Estimate the on-chip test-generation hardware area."""
    lib = library or DEFAULT_LIBRARY
    xor_area = lib.gate_area(GateType.XOR, 2)
    and_area = lib.gate_area(GateType.AND, max(2, tpg.m))
    or_area = lib.gate_area(GateType.OR, max(2, tpg.m))
    nor_area = lib.gate_area(GateType.NOR, 2)
    inc_area_per_bit = lib.gate_area(GateType.AND, 2) + xor_area  # ripple stage

    lfsr_area = n_lfsr * lib.flop_area + 4 * xor_area
    # Extra SR bits beyond one per input are charged (the one-per-input
    # register exists anyway at an embedded block's boundary).
    extra_sr_bits = max(0, tpg.n_register_bits - tpg.n_inputs)
    bias_area = (
        extra_sr_bits * lib.flop_area
        + tpg.n_and_gates * and_area
        + tpg.n_or_gates * or_area
    )
    counter_area = 0.0
    for width in counters.bit_widths.values():
        counter_area += width * (lib.flop_area + inc_area_per_bit) + nor_area
    controller_area = CONTROLLER_FLOPS * lib.flop_area + CONTROLLER_GATES * lib.gate_area(
        GateType.NAND, 2
    )
    seed_area = n_seeds * n_lfsr * lib.flop_area * ROM_BIT_AREA_FRACTION
    holding_area = 0.0
    if n_hold_sets:
        decoder = n_hold_sets * lib.gate_area(GateType.AND, max(2, counter_bits(n_hold_sets)))
        gating = n_hold_sets * (lib.latch_area + and_area)
        enable_or = n_hold_sets * or_area
        # Clock-tree tap per held bit (buffer on the gated clock branch).
        taps = n_held_bits * lib.gate_area(GateType.BUF, 1) * 0.25
        holding_area = decoder + gating + enable_or + taps
    return AreaReport(
        lfsr=lfsr_area,
        tpg_bias=bias_area,
        counters=counter_area,
        controller=controller_area,
        seed_storage=seed_area,
        state_holding=holding_area,
        circuit_area=lib.circuit_area(circuit),
    )
