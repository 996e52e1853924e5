"""Embedded blocks and functional switching-activity estimation (Section 4.4).

A circuit under test is typically embedded in a larger design that
constrains its primary input sequences (Fig 4.1: block ``B1`` drives
``B2``).  The constraints cannot be extracted in closed form and satisfied
by simple hardware, so the developed method captures them through
*functional input sequences* of the complete design: the peak switching
activity ``SWA_func`` the target circuit exhibits under those sequences
bounds the switching activity allowed during on-chip test generation.

* :func:`compose` builds the combined ``driver -> target`` netlist.
* :func:`estimate_swa_func` simulates functional input sequences (by
  default 30 TPG-generated sequences, as in Section 4.6) through the
  composition and returns the target-local peak SWA.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.bist.tpg import DevelopedTpg
from repro.circuits.benchmarks import make_buffers_block
from repro.circuits.netlist import Circuit
from repro.logic.bitsim import simulate_packed_words


@dataclass(frozen=True)
class ComposedDesign:
    """A driver block wired to every primary input of a target block."""

    circuit: Circuit
    driver: Circuit
    target: Circuit
    #: lines of the composed netlist belonging to the target (for SWA)
    target_lines: tuple[str, ...]

    @property
    def inputs(self) -> list[str]:
        """Primary inputs of the composition (= the driver's)."""
        return list(self.circuit.inputs)


def compose(driver: Circuit, target: Circuit) -> ComposedDesign:
    """Wire ``driver``'s primary outputs to ``target``'s primary inputs.

    Requires ``driver`` to have at least as many primary outputs as
    ``target`` has primary inputs (the pairing rule of Section 4.6); the
    first ``N_PI(target)`` outputs are used in order.  Target primary
    inputs become BUF lines so the target's line count -- and therefore
    its SWA percentage base -- matches the standalone circuit.
    """
    if len(driver.outputs) < len(target.inputs):
        raise ValueError(
            f"driver {driver.name} has {len(driver.outputs)} outputs < "
            f"{len(target.inputs)} target inputs"
        )
    combined = Circuit(name=f"{driver.name}+{target.name}")
    d = lambda name: f"B1_{name}"  # noqa: E731 - local renamers
    t = lambda name: f"B2_{name}"  # noqa: E731

    for pi in driver.inputs:
        combined.add_input(d(pi))
    for gate in driver.topo_gates:
        combined.add_gate(d(gate.name), gate.gate_type, [d(i) for i in gate.inputs])
    for flop in driver.flops:
        combined.add_dff(q=d(flop.q), d=d(flop.d))

    for pi, po in zip(target.inputs, driver.outputs):
        combined.add_gate(t(pi), "BUF", [d(po)])
    for gate in target.topo_gates:
        combined.add_gate(t(gate.name), gate.gate_type, [t(i) for i in gate.inputs])
    for flop in target.flops:
        combined.add_dff(q=t(flop.q), d=t(flop.d))
    for po in target.outputs:
        combined.add_output(t(po))
    combined.validate()
    target_lines = tuple(t(line) for line in target.lines)
    return ComposedDesign(
        circuit=combined, driver=driver, target=target, target_lines=target_lines
    )


def compose_with_buffers(target: Circuit) -> ComposedDesign:
    """Compose the target with the unconstrained ``buffers`` driving block."""
    return compose(make_buffers_block(target), target)


@dataclass(frozen=True)
class SwaFuncEstimate:
    """Result of the functional-sequence simulation."""

    swa_func: float
    per_sequence_peak: tuple[float, ...]
    n_sequences: int
    length: int


def estimate_swa_func(
    design: ComposedDesign,
    n_sequences: int = 30,
    length: int = 300,
    base_seed: int = 0xC0FFEE,
    tpg: DevelopedTpg | None = None,
) -> SwaFuncEstimate:
    """Peak target SWA under TPG-generated functional input sequences.

    Per Section 4.6, the functional input sequences are produced by the
    TPG designed for the *driving block* (unless ``tpg`` is given); both
    blocks start from the all-0 state.  The TPG expands every seed at once into lane-packed words
    (:meth:`~repro.bist.tpg.DevelopedTpg.sequence_batch`), which feed one
    packed simulation pass directly, so the default 30 sequences cost a
    single pass.
    """
    if n_sequences > 64:
        raise ValueError("at most 64 packed functional sequences")
    tpg = tpg or DevelopedTpg.for_circuit(design.driver)
    seeds = [
        (base_seed + 0x9E3779B9 * (k + 1)) & 0xFFFFFFFF or 1
        for k in range(n_sequences)
    ]
    result = simulate_packed_words(
        design.circuit,
        [0] * len(design.circuit.flops),
        tpg.sequence_batch(seeds, length),
        n_sequences,
        count_lines=design.target_lines,
    )
    percent = result.switching_percent(len(design.target_lines))
    peaks = tuple(float(percent[1:, k].max()) if length > 1 else 0.0 for k in range(n_sequences))
    return SwaFuncEstimate(
        swa_func=max(peaks) if peaks else 0.0,
        per_sequence_peak=peaks,
        n_sequences=n_sequences,
        length=length,
    )
