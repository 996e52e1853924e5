"""Tests for structural fault collapsing."""

import random

from repro.circuits.benchmarks import get_circuit
from repro.circuits.netlist import Circuit
from repro.faults.collapse import (
    collapse_transition,
    collapsed_transition_faults,
    transition_equivalence_classes,
)
from repro.faults.lists import all_transition_faults
from repro.faults.models import FALL, RISE, TransitionFault


def inverter_chain():
    c = Circuit(name="chain")
    c.add_input("a")
    c.add_gate("b", "NOT", ["a"])
    c.add_gate("cc", "NOT", ["b"])
    c.add_output("cc")
    c.validate()
    return c


def and_gate():
    c = Circuit(name="andg")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("o", "AND", ["a", "b"])
    c.add_output("o")
    c.validate()
    return c


class TestEquivalence:
    def test_not_polarity_swap(self):
        c = inverter_chain()
        classes = transition_equivalence_classes(c)
        assert classes[("a", 0)] == classes[("b", 1)]
        assert classes[("a", 1)] == classes[("b", 0)]

    def test_and_inputs_not_merged(self):
        """The stuck-at controlling-value merge is unsound for transition faults."""
        c = and_gate()
        classes = transition_equivalence_classes(c)
        assert len({classes[(line, v)] for line in ("a", "b", "o") for v in (0, 1)}) == 6

    def test_fanout_stems_not_merged(self):
        c = Circuit(name="stem")
        c.add_input("a")
        c.add_gate("x", "NOT", ["a"])
        c.add_gate("y", "NOT", ["a"])
        c.add_output("x")
        c.add_output("y")
        c.validate()
        classes = transition_equivalence_classes(c)
        assert classes[("a", 0)] != classes[("x", 1)]


class TestTransitionCollapse:
    def test_polarity_mapping(self):
        c = inverter_chain()
        collapsed = collapse_transition(c, all_transition_faults(c))
        assert len(collapsed) == 2
        directions = {f.direction for f in collapsed}
        assert directions == {RISE, FALL}

    def test_collapsed_faults_detection_equivalent(self):
        """Equivalent transition faults have identical detection words."""
        from repro.faults.fsim import TransitionFaultSimulator
        from repro.logic.simulator import make_broadside_test

        c = get_circuit("s27")
        rng = random.Random(4)
        tests = [
            make_broadside_test(
                c,
                [rng.randint(0, 1) for _ in c.flops],
                [rng.randint(0, 1) for _ in c.inputs],
                [rng.randint(0, 1) for _ in c.inputs],
            )
            for _ in range(64)
        ]
        from repro.faults.collapse import transition_equivalence_classes

        classes = transition_equivalence_classes(c)
        groups: dict[tuple, list[TransitionFault]] = {}
        for f in all_transition_faults(c):
            groups.setdefault(classes[(f.line, f.stuck_value)], []).append(f)
        sim = TransitionFaultSimulator(c)
        words = sim.detection_words(tests, all_transition_faults(c))
        for members in groups.values():
            first = words[members[0]]
            for other in members[1:]:
                assert words[other] == first, (members[0], other)

    def test_idempotent(self):
        c = get_circuit("s298")
        once = collapse_transition(c, all_transition_faults(c))
        twice = collapse_transition(c, once)
        assert once == twice


#: Pinned collapsed transition-fault list for s27 (34 raw faults -> 32
#: representatives; the NOT-driven pair folds onto its driver).  Any change
#: to the collapsing rules must update this golden deliberately.
S27_COLLAPSED_GOLDEN = [
    ("G14", FALL), ("G14", RISE),
    ("G1", RISE), ("G1", FALL),
    ("G2", RISE), ("G2", FALL),
    ("G3", RISE), ("G3", FALL),
    ("G5", RISE), ("G5", FALL),
    ("G6", RISE), ("G6", FALL),
    ("G7", RISE), ("G7", FALL),
    ("G12", RISE), ("G12", FALL),
    ("G13", RISE), ("G13", FALL),
    ("G8", RISE), ("G8", FALL),
    ("G16", RISE), ("G16", FALL),
    ("G15", RISE), ("G15", FALL),
    ("G9", RISE), ("G9", FALL),
    ("G11", RISE), ("G11", FALL),
    ("G10", RISE), ("G10", FALL),
    ("G17", RISE), ("G17", FALL),
]


class TestS27Golden:
    def test_pinned_collapsed_list(self):
        c = get_circuit("s27")
        got = [(f.line, f.direction) for f in collapsed_transition_faults(c)]
        assert got == S27_COLLAPSED_GOLDEN

    def test_representatives_are_subset_of_raw(self):
        c = get_circuit("s27")
        raw = set(all_transition_faults(c))
        assert set(collapsed_transition_faults(c)) <= raw

    def test_collapsed_detection_equals_uncollapsed(self):
        """Grading the collapsed list loses no detection information.

        For any test set, the detected equivalence classes computed from
        the collapsed representatives (compiled PPSFP grader) must equal
        the detected classes computed from the full raw fault list --
        collapsing is a pure work reduction, never a coverage change.
        """
        from repro.faults.fsim import TransitionFaultSimulator
        from repro.logic.simulator import make_broadside_test

        c = get_circuit("s27")
        classes = transition_equivalence_classes(c)
        raw = all_transition_faults(c)
        collapsed = collapsed_transition_faults(c)
        sim = TransitionFaultSimulator(c)
        rng = random.Random(11)
        for trial in range(5):
            tests = [
                make_broadside_test(
                    c,
                    [rng.randint(0, 1) for _ in c.flops],
                    [rng.randint(0, 1) for _ in c.inputs],
                    [rng.randint(0, 1) for _ in c.inputs],
                )
                for _ in range(1 + 8 * trial)
            ]
            det_raw = sim.detected_faults(tests, raw)
            det_col = sim.detected_faults(tests, collapsed)
            classes_raw = {classes[(f.line, f.stuck_value)] for f in det_raw}
            classes_col = {classes[(f.line, f.stuck_value)] for f in det_col}
            assert classes_col == classes_raw, f"trial {trial}"


class TestMemoization:
    def test_classes_cached_until_version_bump(self):
        c = inverter_chain()
        first = transition_equivalence_classes(c)
        assert transition_equivalence_classes(c) is first
        c.add_gate("d", "NOT", ["cc"])  # structural edit bumps the version
        assert transition_equivalence_classes(c) is not first

    def test_collapsed_list_cached_and_fresh(self):
        c = get_circuit("s344")
        first = collapsed_transition_faults(c)
        second = collapsed_transition_faults(c)
        # Same contents, but a fresh list: callers may reorder or filter.
        assert first == second
        assert first is not second
        second.pop()
        assert collapsed_transition_faults(c) == first

    def test_matches_uncached_collapse(self):
        c = get_circuit("s298")
        assert collapsed_transition_faults(c) == collapse_transition(
            c, all_transition_faults(c)
        )
