"""Tests for bit-parallel transition-fault simulation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.benchmarks import get_circuit
from repro.circuits.netlist import Circuit
from repro.faults.fsim import (
    FaultGrader,
    TransitionFaultSimulator,
    compact_groups,
    stuck_at_detection_words,
)
from repro.faults.lists import all_transition_faults
from repro.faults.models import FALL, RISE, StuckAtFault, TransitionFault
from repro.logic.patterns import Pattern
from repro.logic.simulator import make_broadside_test


def buf_circuit():
    """a -> n (BUF) -> PO; trivially analysable detection conditions."""
    c = Circuit(name="buf")
    c.add_input("a")
    c.add_gate("n", "BUF", ["a"])
    c.add_output("n")
    c.add_dff(q="q", d="n")
    c.validate()
    return c


class TestDetectionConditions:
    def test_rise_needs_0_then_1(self):
        c = buf_circuit()
        sim = TransitionFaultSimulator(c)
        rise = TransitionFault("n", RISE)
        t_good = make_broadside_test(c, [0], [0], [1])  # a: 0 -> 1
        t_no_launch = make_broadside_test(c, [0], [1], [1])  # a: 1 -> 1
        t_wrong_final = make_broadside_test(c, [0], [0], [0])  # a: 0 -> 0
        assert sim.detects(t_good, rise)
        assert not sim.detects(t_no_launch, rise)
        assert not sim.detects(t_wrong_final, rise)

    def test_fall_is_mirror(self):
        c = buf_circuit()
        sim = TransitionFaultSimulator(c)
        fall = TransitionFault("n", FALL)
        assert sim.detects(make_broadside_test(c, [0], [1], [0]), fall)
        assert not sim.detects(make_broadside_test(c, [0], [0], [1]), fall)

    def test_observation_via_next_state(self):
        """A fault observable only at a flop D input is still detected."""
        c = Circuit(name="ff_only")
        c.add_input("a")
        c.add_gate("n", "BUF", ["a"])
        c.add_dff(q="q", d="n")
        c.add_gate("po", "BUF", ["q"])
        c.add_output("po")
        c.validate()
        sim = TransitionFaultSimulator(c)
        t = make_broadside_test(c, [0], [0], [1])
        assert sim.detects(t, TransitionFault("n", RISE))

    def test_blocked_propagation(self):
        c = Circuit(name="blocked")
        c.add_input("a")
        c.add_input("en")
        c.add_gate("n", "AND", ["a", "en"])
        c.add_output("n")
        c.add_dff(q="q", d="n")
        c.validate()
        sim = TransitionFaultSimulator(c)
        # en = 0 in the second pattern blocks the fault effect on `a`.
        t = make_broadside_test(c, [0], [0, 1], [1, 0])
        assert not sim.detects(t, TransitionFault("a", RISE))
        t2 = make_broadside_test(c, [0], [0, 1], [1, 1])
        assert sim.detects(t2, TransitionFault("a", RISE))


class TestAgainstBruteForce:
    def test_detection_words_match_scalar_reference(self):
        """PPSFP words == scalar two-frame forced simulation, fault by fault."""
        self._check_against_reference(chunk_size=256)

    def test_detection_words_match_scalar_reference_across_chunks(self):
        """40 tests in 16-test chunks: the ``w << offset`` merge is exact."""
        self._check_against_reference(chunk_size=16)

    @staticmethod
    def _check_against_reference(chunk_size):
        from repro.circuits.gates import evaluate

        c = get_circuit("s27")
        rng = random.Random(11)
        tests = [
            make_broadside_test(
                c,
                [rng.randint(0, 1) for _ in c.flops],
                [rng.randint(0, 1) for _ in c.inputs],
                [rng.randint(0, 1) for _ in c.inputs],
            )
            for _ in range(40)
        ]
        faults = all_transition_faults(c)
        sim = TransitionFaultSimulator(c, chunk_size=chunk_size)
        words = sim.detection_words(tests, faults)

        def scalar_values(state, pis, forced=None):
            values = dict(zip(c.inputs, pis)) | dict(zip(c.state_lines, state))
            if forced and forced[0] in values:
                values[forced[0]] = forced[1]
            for gate in c.topo_gates:
                values[gate.name] = evaluate(
                    gate.gate_type, [values[i] for i in gate.inputs]
                )
                if forced and gate.name == forced[0]:
                    values[gate.name] = forced[1]
            return values

        obs = sim.observation
        for fault in faults:
            for t_index, t in enumerate(tests):
                good1 = scalar_values(t.s1, t.v1)
                good2 = scalar_values(t.s2, t.v2)
                active = (
                    good1[fault.line] == fault.initial_value
                    and good2[fault.line] == fault.final_value
                )
                detected = False
                if active:
                    faulty2 = scalar_values(
                        t.s2, t.v2, forced=(fault.line, fault.stuck_value)
                    )
                    detected = any(faulty2[o] != good2[o] for o in obs)
                assert ((words[fault] >> t_index) & 1) == int(detected), (
                    fault,
                    t_index,
                )


class TestGrader:
    def test_preview_does_not_drop(self):
        c = get_circuit("s27")
        faults = all_transition_faults(c)
        grader = FaultGrader(c, faults)
        t = make_broadside_test(c, [0, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1])
        newly = grader.preview([t])
        assert newly
        assert len(grader.remaining) == len(faults)
        grader.commit(newly)
        assert len(grader.remaining) == len(faults) - len(newly)

    def test_grade_is_preview_plus_commit(self):
        c = get_circuit("s27")
        faults = all_transition_faults(c)
        g1 = FaultGrader(c, faults)
        g2 = FaultGrader(c, faults)
        t = make_broadside_test(c, [1, 0, 1], [0, 1, 0, 1], [1, 0, 1, 0])
        newly = g1.preview([t])
        g1.commit(newly)
        assert g2.grade([t]) == newly

    def test_coverage_monotone(self):
        c = get_circuit("s27")
        rng = random.Random(3)
        grader = FaultGrader(c, all_transition_faults(c))
        last = 0.0
        for _ in range(5):
            t = make_broadside_test(
                c,
                [rng.randint(0, 1) for _ in c.flops],
                [rng.randint(0, 1) for _ in c.inputs],
                [rng.randint(0, 1) for _ in c.inputs],
            )
            grader.grade([t])
            assert grader.coverage >= last
            last = grader.coverage

    def test_empty_fault_list(self):
        c = get_circuit("s27")
        grader = FaultGrader(c, [])
        assert grader.coverage == 0.0
        assert grader.grade([]) == set()


class TestStuckAt:
    def test_simple_detection(self):
        c = buf_circuit()
        faults = [StuckAtFault("n", 0), StuckAtFault("n", 1)]
        patterns = [Pattern(state=(0,), pi=(1,)), Pattern(state=(0,), pi=(0,))]
        words = stuck_at_detection_words(c, patterns, faults)
        assert words[StuckAtFault("n", 0)] == 0b01  # detected by a=1
        assert words[StuckAtFault("n", 1)] == 0b10  # detected by a=0

    def test_no_patterns(self):
        c = buf_circuit()
        words = stuck_at_detection_words(c, [], [StuckAtFault("n", 0)])
        assert words[StuckAtFault("n", 0)] == 0


class TestCompaction:
    def test_preserves_coverage(self):
        detections = [{1, 2}, {2, 3}, {3}, {4}, set()]
        result = compact_groups(detections)
        covered = set()
        for i in result.kept:
            covered |= detections[i]
        assert covered == {1, 2, 3, 4}
        assert result.faults_covered == 4

    def test_drops_redundant(self):
        detections = [{1}, {1}, {1, 2}]
        result = compact_groups(detections)
        assert result.kept == (2,)

    @settings(max_examples=50)
    @given(
        st.lists(
            st.sets(st.integers(0, 10), max_size=5), min_size=0, max_size=8
        )
    )
    def test_property_coverage_preserved(self, detections):
        result = compact_groups(detections)
        union_all = set().union(*detections) if detections else set()
        covered = set().union(*(detections[i] for i in result.kept)) if result.kept else set()
        assert covered == union_all
        assert sorted(result.kept) == list(result.kept)


class TestTestSetCompaction:
    def test_coverage_preserved(self):
        import random

        from repro.faults.fsim import TransitionFaultSimulator, compact_test_set
        from repro.faults.lists import all_transition_faults

        c = get_circuit("s298")
        faults = all_transition_faults(c)
        rng = random.Random(12)
        tests = [
            make_broadside_test(
                c,
                [rng.randint(0, 1) for _ in c.flops],
                [rng.randint(0, 1) for _ in c.inputs],
                [rng.randint(0, 1) for _ in c.inputs],
            )
            for _ in range(120)
        ]
        sim = TransitionFaultSimulator(c)
        before = sim.detected_faults(tests, faults)
        compacted = compact_test_set(c, tests, faults)
        after = sim.detected_faults(compacted, faults)
        assert after == before
        assert len(compacted) < len(tests)  # random sets are redundant

    def test_empty_inputs(self):
        from repro.faults.fsim import compact_test_set

        c = get_circuit("s27")
        assert compact_test_set(c, [], []) == []
