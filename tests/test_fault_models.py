"""Tests for fault models and the Fig 1.x example circuits."""

import pytest

from repro.circuits.benchmarks import get_circuit
from repro.circuits.gates import inversion_parity
from repro.circuits.generator import GeneratorSpec, generate
from repro.circuits.netlist import NetlistError
from repro.experiments.figures import fig_1_3_circuit, fig_1_4_circuit
from repro.faults.models import (
    FALL,
    Path,
    PathDelayFault,
    RISE,
    StuckAtFault,
    TransitionFault,
    TransitionPathDelayFault,
    opposite,
)
from repro.paths.enumeration import k_longest_paths


class TestTransitionFault:
    def test_rise_semantics(self):
        f = TransitionFault("c", RISE)
        assert f.initial_value == 0
        assert f.final_value == 1
        assert f.stuck_value == 0
        assert f.as_stuck_at == StuckAtFault("c", 0)

    def test_fall_semantics(self):
        f = TransitionFault("c", FALL)
        assert f.initial_value == 1
        assert f.final_value == 0
        assert f.as_stuck_at == StuckAtFault("c", 1)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            TransitionFault("c", "sideways")

    def test_opposite(self):
        assert opposite(RISE) == FALL
        assert opposite(FALL) == RISE

    def test_str(self):
        assert str(TransitionFault("c", RISE)) == "c slow-to-rise"
        assert str(StuckAtFault("c", 0)) == "c s-a-0"


class TestPath:
    def test_fig_1_4_path_valid(self):
        c = fig_1_4_circuit()
        path = Path(lines=("a", "c", "e", "g"))
        path.validate(c)
        assert path.source == "a"
        assert path.sink == "g"
        assert path.length == 4

    def test_invalid_hop_rejected(self):
        c = fig_1_4_circuit()
        with pytest.raises(NetlistError):
            Path(lines=("a", "e")).validate(c)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            Path(lines=())

    def test_inversions(self):
        c = fig_1_4_circuit()  # OR - AND - OR: no inversions
        path = Path(lines=("a", "c", "e", "g"))
        assert PathDelayFault(path, FALL).transitions(c) == [(1, 0)] * 4

    def test_str(self):
        assert str(Path(lines=("a", "c"))) == "a-c"


def inversion_count_polarity(circuit, fault, index):
    """``(v_i, v_i')`` on ``lines[index]`` by counting the inverting gates
    between the source and that line (the per-index definition)."""
    inversions = sum(
        inversion_parity(circuit.gates[line].gate_type)
        for line in fault.path.lines[1 : index + 1]
    )
    v = 0 if fault.direction == RISE else 1
    if inversions % 2 == 1:
        v = 1 - v
    return (v, 1 - v)


class TestPolarity:
    def test_non_inverting_path_keeps_polarity(self):
        c = fig_1_4_circuit()
        fault = PathDelayFault(Path(lines=("a", "c", "e", "g")), RISE)
        assert fault.transitions(c) == [(0, 1)] * 4

    def test_inverting_gate_flips_polarity(self):
        from repro.circuits.netlist import Circuit

        c = Circuit(name="inv")
        c.add_input("a")
        c.add_gate("b", "NAND", ["a", "a2"])
        c.add_input("a2")
        c.add_gate("c", "NOR", ["b", "a2"])
        c.add_output("c")
        c.validate()
        fault = PathDelayFault(Path(lines=("a", "b", "c")), RISE)
        assert fault.transitions(c) == [
            (0, 1),
            (1, 0),  # through NAND
            (0, 1),  # through NOR
        ]

    @pytest.mark.parametrize("name", ["s27", "s298", "gen"])
    def test_walk_matches_inversion_count(self, name):
        """The one-walk polarity equals the inversion count at every index."""
        if name == "gen":
            spec = GeneratorSpec(
                name="pol", n_inputs=5, n_outputs=3, n_flops=4, n_gates=60, seed=3
            )
            circuit = generate(spec)
        else:
            circuit = get_circuit(name)
        paths = k_longest_paths(circuit, 200)
        assert any(
            inversion_parity(circuit.gates[line].gate_type)
            for path in paths
            for line in path.lines[1:]
        )
        for path in paths:
            for direction in (RISE, FALL):
                fault = PathDelayFault(path, direction)
                walk = fault.transitions(circuit)
                assert len(walk) == path.length
                for i, pair in enumerate(walk):
                    assert pair == inversion_count_polarity(circuit, fault, i), (path, i)


class TestTpdf:
    def test_constituents_match_polarity(self):
        c = fig_1_4_circuit()
        tpdf = TransitionPathDelayFault(Path(lines=("a", "c", "e", "g")), RISE)
        constituents = tpdf.transition_faults(c)
        assert [f.line for f in constituents] == ["a", "c", "e", "g"]
        assert all(f.direction == RISE for f in constituents)

    def test_falling_launch(self):
        c = fig_1_4_circuit()
        tpdf = TransitionPathDelayFault(Path(lines=("a", "c", "e", "g")), FALL)
        assert all(f.direction == FALL for f in tpdf.transition_faults(c))

    def test_as_path_delay_fault(self):
        tpdf = TransitionPathDelayFault(Path(lines=("a",)), RISE)
        assert tpdf.as_path_delay_fault == PathDelayFault(Path(lines=("a",)), RISE)

    def test_fig_1_3_example(self):
        """Fig 1.3's test values: <001, 101> on abd sensitizes a-c-e."""
        from repro.logic.simulator import simulate_comb

        c = fig_1_3_circuit()
        p1 = simulate_comb(c, {"a": 0, "b": 0, "d": 1})
        p2 = simulate_comb(c, {"a": 1, "b": 0, "d": 1})
        assert (p1["c"], p2["c"]) == (0, 1)
        assert (p1["e"], p2["e"]) == (0, 1)
