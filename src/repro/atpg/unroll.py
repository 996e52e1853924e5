"""Two-frame combinational expansion of a sequential circuit.

Scan-based two-pattern ATPG operates on the circuit unrolled over the
launch and capture cycles (Section 1.3).  The three scan styles differ
only in where the second pattern's state ``s2`` comes from, and the model
encodes exactly that:

* **broadside** (Fig 1.10): ``q@2`` is a BUF gate fed by frame-1's
  next-state line -- ``s2 = nextstate(s1, v1)``;
* **skewed-load** (Fig 1.9): ``q@2`` is the previous scan cell's ``q@1``
  (a one-bit shift of the loaded state); the first cell of each chain is
  fed by a free scan-in input ``SI<k>@2``;
* **enhanced scan** ([10]): ``q@2`` is a free input -- the special
  two-bit scan cells let ``s1`` and ``s2`` be independent, which is why
  enhanced scan reaches the highest coverage.

In every style: frame-1 inputs are ``pi@1`` and ``q@1`` (the scan-in
state is fully controllable), frame-2 primary inputs ``pi@2`` are free,
and the observation points are the frame-2 primary outputs plus the
frame-2 next-state lines (captured into the scan chains).  Frame-1
primary outputs are not strobed, matching the test-application protocols.
Explicit ``q@2`` sites also give fault injection on a frame-2 state line
a dedicated line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.circuits.netlist import Circuit
from repro.circuits.scan import ScanChains
from repro.logic.patterns import BroadsideTest
from repro.logic.simulator import simulate_comb, next_state
from repro.logic.values import X

BROADSIDE = "broadside"
SKEWED_LOAD = "skewed_load"
ENHANCED = "enhanced"


@dataclass(frozen=True)
class TwoFrameModel:
    """A sequential circuit expanded over two clock cycles."""

    base: Circuit
    model: Circuit
    style: str = BROADSIDE
    chains: ScanChains | None = field(default=None, compare=False)
    #: (line, launch value) -> the necessary assignments of that transition
    #: over this model as ``(ones, zeros)`` bit masks over the compiled
    #: line indices, or ``None`` when it is undetectable: the memo of
    #: :mod:`repro.atpg.input_assignments`.
    na_memo: dict[tuple[str, int], tuple[int, int] | None] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @staticmethod
    def build(circuit: Circuit) -> "TwoFrameModel":
        """Unroll ``circuit`` into its broadside two-frame model."""
        return TwoFrameModel._build(circuit, BROADSIDE, None)

    @staticmethod
    def build_enhanced(circuit: Circuit) -> "TwoFrameModel":
        """Enhanced-scan model: ``s1`` and ``s2`` are independent."""
        return TwoFrameModel._build(circuit, ENHANCED, None)

    @staticmethod
    def build_skewed(
        circuit: Circuit, chains: ScanChains | None = None
    ) -> "TwoFrameModel":
        """Skewed-load model: ``s2`` is a one-bit shift of ``s1``."""
        chains = chains or ScanChains.partition(circuit)
        return TwoFrameModel._build(circuit, SKEWED_LOAD, chains)

    @staticmethod
    def _build(
        circuit: Circuit, style: str, chains: ScanChains | None
    ) -> "TwoFrameModel":
        model = Circuit(name=f"{circuit.name}@x2:{style}")
        for pi in circuit.inputs:
            model.add_input(f"{pi}@1")
        for q in circuit.state_lines:
            model.add_input(f"{q}@1")
        for pi in circuit.inputs:
            model.add_input(f"{pi}@2")
        for gate in circuit.topo_gates:
            model.add_gate(
                f"{gate.name}@1", gate.gate_type, [f"{i}@1" for i in gate.inputs]
            )
        if style == BROADSIDE:
            for flop in circuit.flops:
                model.add_gate(f"{flop.q}@2", "BUF", [f"{flop.d}@1"])
        elif style == ENHANCED:
            for flop in circuit.flops:
                model.add_input(f"{flop.q}@2")
        elif style == SKEWED_LOAD:
            assert chains is not None
            for k, chain in enumerate(chains.chains):
                model.add_input(f"SI{k}@2")
                prev = f"SI{k}@2"
                for q in chain:
                    model.add_gate(f"{q}@2", "BUF", [prev])
                    prev = f"{q}@1"
        else:
            raise ValueError(f"unknown scan style {style!r}")
        for gate in circuit.topo_gates:
            model.add_gate(
                f"{gate.name}@2", gate.gate_type, [f"{i}@2" for i in gate.inputs]
            )
        for po in circuit.outputs:
            model.add_output(f"{po}@2")
        for flop in circuit.flops:
            model.add_output(f"{flop.d}@2")
        model.validate()
        return TwoFrameModel(base=circuit, model=model, style=style, chains=chains)

    # ------------------------------------------------------------------
    @staticmethod
    def line(name: str, frame: int) -> str:
        """The model line carrying ``name`` in frame 1 or 2."""
        return f"{name}@{frame}"

    @property
    def free_inputs(self) -> list[str]:
        """All controllable inputs: ``pi@1``, ``q@1``, ``pi@2``."""
        return list(self.model.inputs)

    @property
    def observation(self) -> list[str]:
        """Frame-2 primary outputs and next-state lines (deduplicated)."""
        seen: set[str] = set()
        return [o for o in self.model.outputs if not (o in seen or seen.add(o))]

    # ------------------------------------------------------------------
    def to_broadside_test(
        self, assignments: Mapping[str, int], fill: int = 0
    ) -> BroadsideTest:
        """Convert a model input assignment into a two-pattern scan test.

        Unassigned (X) inputs are filled with ``fill``; ``s2`` is derived
        per the model's scan style -- circuit response (broadside), one-bit
        shift (skewed load), or the free ``q@2`` assignments (enhanced) --
        so the result is consistent regardless of the fill choice.
        """
        def value(name: str) -> int:
            v = assignments.get(name, X)
            return fill if v == X else v

        s1 = tuple(value(f"{q}@1") for q in self.base.state_lines)
        v1 = tuple(value(f"{pi}@1") for pi in self.base.inputs)
        v2 = tuple(value(f"{pi}@2") for pi in self.base.inputs)
        if self.style == BROADSIDE:
            frame1 = simulate_comb(
                self.base,
                dict(zip(self.base.inputs, v1))
                | dict(zip(self.base.state_lines, s1)),
            )
            s2 = next_state(self.base, frame1)
        elif self.style == ENHANCED:
            s2 = tuple(value(f"{q}@2") for q in self.base.state_lines)
        else:  # skewed load: shift each chain by one bit
            assert self.chains is not None
            s1_map = dict(zip(self.base.state_lines, s1))
            s2_map: dict[str, int] = {}
            for k, chain in enumerate(self.chains.chains):
                prev_value = value(f"SI{k}@2")
                for q in chain:
                    s2_map[q] = prev_value
                    prev_value = s1_map[q]
            s2 = tuple(s2_map[q] for q in self.base.state_lines)
        return BroadsideTest(s1=s1, v1=v1, s2=s2, v2=v2)
