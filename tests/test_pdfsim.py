"""Tests for path-delay-fault sensitization classification and TPDF grading."""

import pytest

from repro.experiments.figures import fig_1_4_circuit
from repro.faults.models import (
    FALL,
    Path,
    PathDelayFault,
    RISE,
    TransitionPathDelayFault,
)
from repro.faults.pdfsim import (
    ROBUST,
    STRONG,
    WEAK,
    at_least,
    classify_sensitization,
    tpdf_detected_by,
    tpdf_detection_words,
)
from repro.logic.simulator import simulate_comb


def frames(circuit, v1, v2):
    return (
        simulate_comb(circuit, v1),
        simulate_comb(circuit, v2),
    )


PATH_ACEG = PathDelayFault(Path(lines=("a", "c", "e", "g")), RISE)


class TestFigureExamples:
    def test_fig_1_4_robust(self):
        """The paper's robust test <0010, 1010> on abdf."""
        c = fig_1_4_circuit()
        f1, f2 = frames(
            c, {"a": 0, "b": 0, "d": 1, "f": 0}, {"a": 1, "b": 0, "d": 1, "f": 0}
        )
        assert classify_sensitization(c, PATH_ACEG, f1, f2) == ROBUST

    def test_fig_1_5_nonrobust(self):
        """The paper's non-robust test <0011, 1010>: f falls (1 -> 0)."""
        c = fig_1_4_circuit()
        f1, f2 = frames(
            c, {"a": 0, "b": 0, "d": 1, "f": 1}, {"a": 1, "b": 0, "d": 1, "f": 0}
        )
        cls = classify_sensitization(c, PATH_ACEG, f1, f2)
        assert cls in (STRONG, WEAK)
        assert cls != ROBUST

    def test_wrong_launch_is_no_test(self):
        c = fig_1_4_circuit()
        f1, f2 = frames(
            c, {"a": 1, "b": 0, "d": 1, "f": 0}, {"a": 1, "b": 0, "d": 1, "f": 0}
        )
        assert classify_sensitization(c, PATH_ACEG, f1, f2) is None

    def test_controlling_side_input_blocks(self):
        c = fig_1_4_circuit()
        # d = 0 blocks the AND gate on the path.
        f1, f2 = frames(
            c, {"a": 0, "b": 0, "d": 0, "f": 0}, {"a": 1, "b": 0, "d": 0, "f": 0}
        )
        assert classify_sensitization(c, PATH_ACEG, f1, f2) is None

    def test_falling_direction(self):
        c = fig_1_4_circuit()
        fault = PathDelayFault(Path(lines=("a", "c", "e", "g")), FALL)
        f1, f2 = frames(
            c, {"a": 1, "b": 0, "d": 1, "f": 0}, {"a": 0, "b": 0, "d": 1, "f": 0}
        )
        assert classify_sensitization(c, fault, f1, f2) == ROBUST


class TestHierarchy:
    def test_rank_order(self):
        assert at_least(ROBUST, WEAK)
        assert at_least(ROBUST, STRONG)
        assert at_least(STRONG, WEAK)
        assert not at_least(WEAK, STRONG)
        assert not at_least(None, WEAK)

    def test_xor_side_steady_required_for_robust(self):
        from repro.circuits.netlist import Circuit

        c = Circuit(name="xorside")
        c.add_input("a")
        c.add_input("s")
        c.add_gate("o", "XOR", ["a", "s"])
        c.add_output("o")
        c.validate()
        fault = PathDelayFault(Path(lines=("a", "o")), RISE)
        steady = frames(c, {"a": 0, "s": 0}, {"a": 1, "s": 0})
        assert classify_sensitization(c, fault, *steady) == ROBUST
        toggling = frames(c, {"a": 0, "s": 1}, {"a": 1, "s": 0})
        # With s toggling, the on-path polarity flips and the side input
        # is unstable: not robust.
        cls = classify_sensitization(c, fault, *toggling)
        assert cls != ROBUST


class TestTpdfGrading:
    def test_detection_is_and_of_constituents(self):
        from repro.circuits.benchmarks import get_circuit
        from repro.faults.fsim import TransitionFaultSimulator
        from repro.logic.simulator import make_broadside_test
        import random

        c = get_circuit("s27")
        rng = random.Random(8)
        tests = [
            make_broadside_test(
                c,
                [rng.randint(0, 1) for _ in c.flops],
                [rng.randint(0, 1) for _ in c.inputs],
                [rng.randint(0, 1) for _ in c.inputs],
            )
            for _ in range(64)
        ]
        from repro.paths.enumeration import enumerate_paths

        faults = [
            TransitionPathDelayFault(path=p, direction=d)
            for p in enumerate_paths(c)[:10]
            for d in (RISE, FALL)
        ]
        words = tpdf_detection_words(c, faults, tests)
        sim = TransitionFaultSimulator(c)
        for fault in faults:
            constituents = fault.transition_faults(c)
            tr_words = sim.detection_words(tests, constituents)
            expect = (1 << len(tests)) - 1
            for tr in constituents:
                expect &= tr_words[tr]
            assert words[fault] == expect

    def test_single_test_wrapper(self):
        from repro.experiments.figures import fig_1_4_circuit
        from repro.logic.simulator import make_broadside_test

        c = fig_1_4_circuit()
        fault = TransitionPathDelayFault(Path(lines=("a", "c", "e", "g")), RISE)
        t = make_broadside_test(c, [], [0, 0, 1, 0], [1, 0, 1, 0])
        assert tpdf_detected_by(c, fault, t)
        # d = 0 in the second pattern blocks the on-path AND gate.
        t_bad = make_broadside_test(c, [], [0, 0, 1, 0], [1, 0, 0, 0])
        assert not tpdf_detected_by(c, fault, t_bad)

    def test_tpdf_detection_implies_on_path_transitions(self):
        """A test detecting a TPDF launches the polarity-correct transition
        on *every* on-path line -- the transition component of a strong
        non-robust test (Section 2.2).  (The off-path non-controlling
        condition is not strictly implied: a controlling on-path value can
        coexist with a controlling side input.)
        """
        from repro.circuits.benchmarks import get_circuit
        from repro.logic.simulator import make_broadside_test, simulate_broadside
        from repro.paths.enumeration import enumerate_paths
        import random

        c = get_circuit("s27")
        rng = random.Random(2)
        tests = [
            make_broadside_test(
                c,
                [rng.randint(0, 1) for _ in c.flops],
                [rng.randint(0, 1) for _ in c.inputs],
                [rng.randint(0, 1) for _ in c.inputs],
            )
            for _ in range(128)
        ]
        faults = [
            TransitionPathDelayFault(path=p, direction=d)
            for p in enumerate_paths(c)
            for d in (RISE, FALL)
        ]
        words = tpdf_detection_words(c, faults, tests)
        checked = 0
        for fault, word in words.items():
            if not word:
                continue
            index = (word & -word).bit_length() - 1
            frame1, frame2 = simulate_broadside(c, tests[index])
            transitions = fault.as_path_delay_fault.transitions(c)
            for line, (vi, vip) in zip(fault.path.lines, transitions):
                assert (frame1[line], frame2[line]) == (vi, vip), (fault, line)
            checked += 1
        assert checked > 0
