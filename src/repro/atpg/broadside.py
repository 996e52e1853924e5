"""Deterministic broadside test generation for transition faults.

The Section 2.3.1 sub-procedure: a PODEM search over the two-frame model
where the ``v -> v'`` transition fault at ``g`` becomes

* the constraint ``g@1 = v`` (first-pattern initialization), and
* the stuck-at-``v`` target on ``g@2`` (second-frame detection at a
  primary output or next-state line).

Besides single-fault generation, :func:`generate_transition_tests` runs
the whole fault list, producing the transition-fault test set the later
Chapter 2 sub-procedures reuse, plus the set of *undetectable* transition
faults the preprocessing procedure consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.atpg.podem import DETECTED, Podem, PodemResult, UNDETECTABLE
from repro.atpg.unroll import TwoFrameModel
from repro.circuits.netlist import Circuit
from repro.faults.models import StuckAtFault, TransitionFault
from repro.logic.patterns import BroadsideTest


@dataclass
class TransitionAtpgResult:
    """Outcome of running ATPG over a transition-fault list."""

    tests: list[BroadsideTest] = field(default_factory=list)
    detected: set[TransitionFault] = field(default_factory=set)
    undetectable: set[TransitionFault] = field(default_factory=set)
    aborted: set[TransitionFault] = field(default_factory=set)


class BroadsideAtpg:
    """Two-frame PODEM ATPG for transition faults.

    ``style`` selects the scan style of Section 1.3: ``broadside``
    (default), ``skewed_load`` or ``enhanced`` -- the search is identical,
    only the model's ``s2`` derivation differs.
    """

    def __init__(
        self,
        circuit: Circuit,
        backtrack_limit: int = 128,
        style: str = "broadside",
    ):
        self.circuit = circuit
        if style == "broadside":
            self.model = TwoFrameModel.build(circuit)
        elif style == "enhanced":
            self.model = TwoFrameModel.build_enhanced(circuit)
        elif style == "skewed_load":
            self.model = TwoFrameModel.build_skewed(circuit)
        else:
            raise ValueError(f"unknown scan style {style!r}")
        self.podem = Podem(
            self.model.model,
            observation=self.model.observation,
            backtrack_limit=backtrack_limit,
        )

    # ------------------------------------------------------------------
    def fault_target(self, fault: TransitionFault) -> tuple[StuckAtFault, dict[str, int]]:
        """The (second-frame stuck-at, constraints) encoding of a transition fault."""
        stuck = StuckAtFault(
            line=TwoFrameModel.line(fault.line, 2), value=fault.stuck_value
        )
        constraints = {TwoFrameModel.line(fault.line, 1): fault.initial_value}
        return stuck, constraints

    def generate(
        self,
        fault: TransitionFault,
        frozen: dict[str, int] | None = None,
        backtrack_limit: int | None = None,
    ) -> PodemResult:
        """Generate a test cube for one transition fault."""
        stuck, constraints = self.fault_target(fault)
        return self.podem.run(
            stuck, constraints=constraints, frozen=frozen, backtrack_limit=backtrack_limit
        )

    # ------------------------------------------------------------------
    def generate_all(self, faults: list[TransitionFault]) -> TransitionAtpgResult:
        """Run the fault list, classifying every fault.

        Tests found for earlier faults are fault-simulated over the
        remaining list (fault dropping) before ATPG is invoked, keeping
        the test count and run time down.
        """
        from repro.faults.fsim import TransitionFaultSimulator

        result = TransitionAtpgResult()
        simulator = TransitionFaultSimulator(self.circuit)
        remaining = list(faults)
        while remaining:
            fault = remaining.pop(0)
            run = self.generate(fault)
            if run.status == DETECTED:
                test = self.model.to_broadside_test(run.assignments)
                result.tests.append(test)
                result.detected.add(fault)
                if remaining:
                    dropped = simulator.detected_faults([test], remaining)
                    result.detected |= dropped
                    remaining = [f for f in remaining if f not in dropped]
            elif run.status == UNDETECTABLE:
                result.undetectable.add(fault)
            else:  # ABORTED
                result.aborted.add(fault)
        return result


def generate_transition_tests(
    circuit: Circuit, faults: list[TransitionFault], backtrack_limit: int = 128
) -> TransitionAtpgResult:
    """Convenience wrapper: run :class:`BroadsideAtpg` over a fault list."""
    return BroadsideAtpg(circuit, backtrack_limit=backtrack_limit).generate_all(faults)
