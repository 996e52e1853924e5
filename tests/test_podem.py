"""Tests for PODEM: correctness against exhaustive enumeration."""

import itertools
import random

import pytest

from repro.atpg import podem as podem_module
from repro.atpg.broadside import BroadsideAtpg
from repro.atpg.podem import (
    ABORTED,
    DETECTED,
    Podem,
    UNDETECTABLE,
    simulate_good_faulty,
)
from repro.circuits.benchmarks import get_circuit
from repro.circuits.generator import GeneratorSpec, generate
from repro.circuits.netlist import Circuit
from repro.faults.collapse import collapsed_transition_faults
from repro.faults.models import StuckAtFault
from repro.logic.patterns import Pattern
from repro.faults.fsim import stuck_at_detection_words
from repro.logic.reference import (
    simulate_comb_forced_reference,
    simulate_comb_reference,
)
from repro.logic.values import X


def redundant_circuit():
    """o = OR(a, NOT(a)) is constant 1: o s-a-1 is undetectable."""
    c = Circuit(name="red")
    c.add_input("a")
    c.add_gate("na", "NOT", ["a"])
    c.add_gate("o", "OR", ["a", "na"])
    c.add_output("o")
    c.validate()
    return c


class TestGoodFaulty:
    def test_fault_site_forced(self):
        c = redundant_circuit()
        good, faulty = simulate_good_faulty(c, {"a": 1}, StuckAtFault("na", 1))
        assert good["na"] == 0
        assert faulty["na"] == 1

    def test_input_fault(self):
        c = redundant_circuit()
        good, faulty = simulate_good_faulty(c, {"a": 1}, StuckAtFault("a", 0))
        assert good["a"] == 1 and faulty["a"] == 0
        assert faulty["na"] == 1

    def test_x_propagation(self):
        c = redundant_circuit()
        good, faulty = simulate_good_faulty(c, {}, StuckAtFault("a", 0))
        assert good["a"] == X
        assert faulty["a"] == 0

    @pytest.mark.parametrize("line", ["na", "typo"])
    def test_assignment_to_a_non_input_raises(self, line):
        """A gate output or unknown name is an error, never a silent X."""
        c = redundant_circuit()
        with pytest.raises(ValueError, match=repr(line)):
            simulate_good_faulty(c, {"a": 1, line: 0}, StuckAtFault("o", 0))


def _reference_good_faulty(circuit, assignments, fault):
    """PODEM's good/faulty pair from the dict-based oracle."""
    return (
        simulate_comb_reference(circuit, assignments),
        simulate_comb_forced_reference(circuit, assignments, fault.line, fault.value),
    )


class TestDecisionsMatchReference:
    @pytest.mark.parametrize("name,n_faults", [("s27", None), ("s298", 40)])
    def test_generate_matches_reference_simulation(self, name, n_faults, monkeypatch):
        """Every PODEM decision is the one the oracle's valuations give.

        Status, cube and backtrack count agree per collapsed transition
        fault, so the compiled kernel changes no search.
        """
        c = get_circuit(name)
        faults = collapsed_transition_faults(c)[:n_faults]

        def outcomes():
            atpg = BroadsideAtpg(c)
            return [
                (r.status, r.assignments, r.backtracks)
                for r in map(atpg.generate, faults)
            ]

        got = outcomes()
        monkeypatch.setattr(podem_module, "simulate_good_faulty", _reference_good_faulty)
        assert got == outcomes()


class TestAgainstExhaustive:
    def _exhaustive_detectable(self, circuit, fault):
        inputs = circuit.comb_input_lines
        patterns = [
            Pattern(
                state=tuple(bits[len(circuit.inputs):]),
                pi=tuple(bits[: len(circuit.inputs)]),
            )
            for bits in itertools.product((0, 1), repeat=len(inputs))
        ]
        words = stuck_at_detection_words(circuit, patterns, [fault])
        return bool(words[fault])

    def test_combinational_faults_match_exhaustive(self):
        """Every stuck-at classification agrees with brute force."""
        spec = GeneratorSpec(
            name="podem-mini", n_inputs=5, n_outputs=3, n_flops=2, n_gates=30
        )
        c = generate(spec)
        podem = Podem(c, observation=c.observation_lines, backtrack_limit=5000)
        rng = random.Random(0)
        lines = rng.sample(c.lines, 12)
        checked_undet = 0
        for line in lines:
            for v in (0, 1):
                fault = StuckAtFault(line, v)
                result = podem.run(fault)
                truth = self._exhaustive_detectable(c, fault)
                assert result.status != ABORTED
                assert (result.status == DETECTED) == truth, fault
                if result.status == UNDETECTABLE:
                    checked_undet += 1
                if result.status == DETECTED:
                    # The returned cube must really detect the fault.
                    pattern = Pattern(
                        state=tuple(
                            result.assignments.get(q, 0) for q in c.state_lines
                        ),
                        pi=tuple(result.assignments.get(p, 0) for p in c.inputs),
                    )
                    words = stuck_at_detection_words(c, [pattern], [fault])
                    assert words[fault] == 1, fault

    def test_redundant_fault_proven_undetectable(self):
        c = redundant_circuit()
        podem = Podem(c)
        assert podem.run(StuckAtFault("o", 1)).status == UNDETECTABLE
        assert podem.run(StuckAtFault("o", 0)).status == DETECTED


class TestConstraintsAndFrozen:
    def test_constraints_respected(self):
        c = get_circuit("s27")
        podem = Podem(c, observation=c.observation_lines)
        fault = StuckAtFault("G14", 0)  # G14 = NOT(G0)
        result = podem.run(fault, constraints={"G1": 1})
        assert result.status == DETECTED
        from repro.logic.simulator import simulate_comb

        values = simulate_comb(c, result.assignments)
        assert values["G1"] == 1

    def test_impossible_constraint_undetectable(self):
        c = redundant_circuit()
        podem = Podem(c)
        result = podem.run(StuckAtFault("na", 0), constraints={"o": 0})
        assert result.status == UNDETECTABLE

    def test_frozen_inputs_never_changed(self):
        c = get_circuit("s27")
        podem = Podem(c, observation=c.observation_lines)
        frozen = {"G0": 1, "G5": 0}
        result = podem.run(StuckAtFault("G12", 0), frozen=frozen)
        if result.status == DETECTED:
            for line, v in frozen.items():
                assert result.assignments[line] == v

    def test_backtrack_limit_aborts(self):
        spec = GeneratorSpec(
            name="podem-abort", n_inputs=8, n_outputs=4, n_flops=4, n_gates=120
        )
        c = generate(spec)
        podem = Podem(c, observation=c.observation_lines, backtrack_limit=0)
        statuses = set()
        for line in c.lines[:40]:
            statuses.add(podem.run(StuckAtFault(line, 0)).status)
        # With a zero backtrack budget at least some searches must abort.
        assert statuses <= {DETECTED, UNDETECTABLE, ABORTED}
