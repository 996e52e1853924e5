"""Tests for two-frame broadside ATPG for transition faults."""

import itertools

import pytest

from repro.atpg.broadside import BroadsideAtpg
from repro.atpg.input_assignments import transition_fault_na
from repro.atpg.podem import DETECTED, UNDETECTABLE
from repro.atpg.unroll import TwoFrameModel
from repro.circuits.benchmarks import get_circuit
from repro.faults.fsim import TransitionFaultSimulator
from repro.faults.lists import all_transition_faults
from repro.faults.models import RISE, TransitionFault
from repro.logic.simulator import make_broadside_test, verify_broadside


class TestTwoFrameModel:
    def test_structure(self):
        c = get_circuit("s27")
        model = TwoFrameModel.build(c)
        m = model.model
        assert len(m.inputs) == 2 * len(c.inputs) + len(c.flops)
        assert m.num_gates == 2 * c.num_gates + len(c.flops)
        assert len(model.observation) == len(c.outputs) + len(c.flops)

    def test_broadside_coupling(self):
        """q@2 equals the frame-1 next-state value."""
        from repro.logic.simulator import simulate_comb

        c = get_circuit("s27")
        model = TwoFrameModel.build(c)
        assignments = {f"{pi}@1": 1 for pi in c.inputs}
        assignments |= {f"{q}@1": 0 for q in c.state_lines}
        assignments |= {f"{pi}@2": 0 for pi in c.inputs}
        values = simulate_comb(model.model, assignments)
        frame1 = simulate_comb(
            c, {pi: 1 for pi in c.inputs} | {q: 0 for q in c.state_lines}
        )
        for flop in c.flops:
            assert values[f"{flop.q}@2"] == frame1[flop.d]

    def test_to_broadside_test_consistent(self):
        c = get_circuit("s27")
        model = TwoFrameModel.build(c)
        test = model.to_broadside_test({"G0@1": 1, "G0@2": 0})
        assert verify_broadside(c, test)
        assert test.v1[0] == 1 and test.v2[0] == 0


class TestGeneration:
    def test_s27_all_classified_and_verified(self):
        c = get_circuit("s27")
        atpg = BroadsideAtpg(c)
        faults = all_transition_faults(c)
        result = atpg.generate_all(faults)
        assert not result.aborted
        assert len(result.detected) + len(result.undetectable) == len(faults)
        sim = TransitionFaultSimulator(c)
        verified = sim.detected_faults(result.tests, list(result.detected))
        assert verified == result.detected

    def test_s27_undetectable_verified_exhaustively(self):
        c = get_circuit("s27")
        atpg = BroadsideAtpg(c)
        result = atpg.generate_all(all_transition_faults(c))
        tests = [
            make_broadside_test(c, s1, v1, v2)
            for s1 in itertools.product((0, 1), repeat=3)
            for v1 in itertools.product((0, 1), repeat=4)
            for v2 in itertools.product((0, 1), repeat=4)
        ]
        sim = TransitionFaultSimulator(c)
        falsely = sim.detected_faults(tests, list(result.undetectable))
        assert not falsely

    def test_single_fault_generation(self):
        c = get_circuit("s27")
        atpg = BroadsideAtpg(c)
        fault = TransitionFault("G14", RISE)
        run = atpg.generate(fault)
        assert run.status == DETECTED
        test = atpg.model.to_broadside_test(run.assignments)
        assert TransitionFaultSimulator(c).detects(test, fault)

    def test_necessary_assignments_contain_seed(self):
        c = get_circuit("s27")
        atpg = BroadsideAtpg(c)
        fault = TransitionFault("G14", RISE)
        na = transition_fault_na(atpg.model, fault)
        assert na is not None
        assert na["G14@1"] == 0 and na["G14@2"] == 1
        # G14 = NOT(G0): the input values are implied.
        assert na["G0@1"] == 1 and na["G0@2"] == 0

    def test_na_none_for_structurally_impossible(self):
        from repro.circuits.netlist import Circuit

        c = Circuit(name="const")
        c.add_input("a")
        c.add_gate("na", "NOT", ["a"])
        c.add_gate("o", "OR", ["a", "na"])  # constant 1
        c.add_gate("po", "BUF", ["o"])
        c.add_output("po")
        c.add_dff(q="q", d="po")
        c.validate()
        atpg = BroadsideAtpg(c)
        assert transition_fault_na(atpg.model, TransitionFault("o", RISE)) is None
