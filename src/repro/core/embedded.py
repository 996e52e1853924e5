"""Embedded blocks and functional switching-activity estimation (Section 4.4).

A circuit under test is typically embedded in a larger design that
constrains its primary input sequences (Fig 4.1: block ``B1`` drives
``B2``).  The constraints cannot be extracted in closed form and satisfied
by simple hardware, so the developed method captures them through
*functional input sequences* of the complete design: the peak switching
activity ``SWA_func`` the target circuit exhibits under those sequences
bounds the switching activity allowed during on-chip test generation.

* :func:`compose` pairs a driver with a target under the interface rule
  of Section 4.6; the combined ``driver -> target`` netlist
  (:attr:`ComposedDesign.circuit`) is built only when read.
* :func:`estimate_swa_func` simulates functional input sequences (by
  default 30 TPG-generated sequences, as in Section 4.6) and returns the
  target-local peak SWA.  It never builds the combined netlist: the
  driver runs once under its TPG, one lane per sequence, and the target
  runs alone on the driver's first ``N_PI`` primary-output words.  The
  target's lines are exactly the combined netlist's ``B2_*`` lines, with
  the same values, so every per-sequence peak is the same float.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.bist.tpg import DevelopedTpg
from repro.circuits.benchmarks import make_buffers_block
from repro.circuits.netlist import Circuit
from repro.core.compiled import compile_circuit
from repro.logic.bitsim import simulate_packed_words


@dataclass(frozen=True)
class ComposedDesign:
    """A driver block wired to every primary input of a target block.

    The target's primary inputs are driven, in order, by the driver's
    first ``N_PI(target)`` primary outputs.
    """

    driver: Circuit
    target: Circuit

    @cached_property
    def circuit(self) -> Circuit:
        """The combined netlist, built on first read.

        Driver lines are prefixed ``B1_``, target lines ``B2_``.  Target
        primary inputs become BUF lines so the target's line count -- and
        therefore its SWA percentage base -- matches the standalone
        circuit.
        """
        driver, target = self.driver, self.target
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
        return combined

    @property
    def target_lines(self) -> tuple[str, ...]:
        """Lines of the combined netlist belonging to the target (for SWA)."""
        return tuple(f"B2_{line}" for line in self.target.lines)


def compose(driver: Circuit, target: Circuit) -> ComposedDesign:
    """Wire ``driver``'s primary outputs to ``target``'s primary inputs.

    Requires ``driver`` to have at least as many primary outputs as
    ``target`` has primary inputs (the pairing rule of Section 4.6); the
    first ``N_PI(target)`` outputs are used in order.
    """
    if len(driver.outputs) < len(target.inputs):
        raise ValueError(
            f"driver {driver.name} has {len(driver.outputs)} outputs < "
            f"{len(target.inputs)} target inputs"
        )
    return ComposedDesign(driver=driver, target=target)


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


def _driver_output_words(
    driver: Circuit, n_sequences: int, length: int, base_seed: int, tpg: DevelopedTpg
) -> list[list[int]]:
    """Per cycle, the packed words of every primary output of ``driver``.

    One packed run of the driver from the all-0 state, lane ``k`` fed by
    the TPG sequence of seed ``k``.
    """
    seeds = [
        (base_seed + 0x9E3779B9 * (k + 1)) & 0xFFFFFFFF or 1
        for k in range(n_sequences)
    ]
    run = simulate_packed_words(
        driver,
        [[0] * len(driver.flops)] * n_sequences,
        tpg.sequence_batch(seeds, length),
        n_sequences,
    )
    index = compile_circuit(driver).index
    return run.line_words([index[po] for po in driver.outputs])


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
    blocks start from the all-0 state.  The TPG expands every seed at
    once into lane-packed words
    (:meth:`~repro.bist.tpg.DevelopedTpg.sequence_batch`) that drive one
    packed run of the driver; its first ``N_PI`` primary-output words of
    each cycle then drive one packed run of the target alone, whose
    per-cycle toggle counts over all its lines give the SWA.  The default
    30 sequences thus cost one pass per block.
    """
    if n_sequences > 64:
        raise ValueError("at most 64 packed functional sequences")
    driver, target = design.driver, design.target
    n_inputs = len(target.inputs)
    outputs = _driver_output_words(
        driver, n_sequences, length, base_seed, tpg or DevelopedTpg.for_circuit(driver)
    )
    result = simulate_packed_words(
        target,
        [[0] * len(target.flops)] * n_sequences,
        [row[:n_inputs] for row in outputs],
        n_sequences,
    )
    percent = result.switching_percent(len(target.lines))
    peaks = tuple(max(lane[1:], default=0.0) for lane in percent)
    return SwaFuncEstimate(
        swa_func=max(peaks) if peaks else 0.0,
        per_sequence_peak=peaks,
        n_sequences=n_sequences,
        length=length,
    )
