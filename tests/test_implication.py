"""Tests for the implication engine and necessary assignments."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.implication import binary_only, imply, merge_assignments
from repro.circuits.netlist import Circuit
from repro.logic.reference import imply_reference
from repro.logic.values import ONE, X, ZERO


def mk(gates):
    """Build a small circuit: gates = [(name, type, inputs)]."""
    c = Circuit(name="mk")
    declared = set()
    for name, _, inputs in gates:
        for i in inputs:
            if i not in declared and all(i != g[0] for g in gates):
                if i not in c.inputs:
                    c.add_input(i)
                declared.add(i)
    for name, gtype, inputs in gates:
        c.add_gate(name, gtype, inputs)
    c.add_output(gates[-1][0])
    c.validate()
    return c


class TestForward:
    def test_and_forward(self):
        c = mk([("o", "AND", ["a", "b"])])
        values = imply(c, {"a": 1, "b": 1})
        assert values["o"] == ONE

    def test_conflict_detected(self):
        c = mk([("o", "AND", ["a", "b"])])
        assert imply(c, {"a": 0, "o": 1}) is None

    def test_unknown_line_rejected(self):
        c = mk([("o", "AND", ["a", "b"])])
        with pytest.raises(KeyError):
            imply(c, {"ghost": 1})


class TestBackward:
    def test_and_output_one_forces_inputs(self):
        c = mk([("o", "AND", ["a", "b"])])
        values = imply(c, {"o": 1})
        assert values["a"] == ONE and values["b"] == ONE

    def test_and_output_zero_last_unknown(self):
        c = mk([("o", "AND", ["a", "b"])])
        values = imply(c, {"o": 0, "a": 1})
        assert values["b"] == ZERO

    def test_and_output_zero_ambiguous(self):
        c = mk([("o", "AND", ["a", "b"])])
        values = imply(c, {"o": 0})
        assert values["a"] == X and values["b"] == X

    def test_nor_output_one_forces_inputs(self):
        c = mk([("o", "NOR", ["a", "b"])])
        values = imply(c, {"o": 1})
        assert values["a"] == ZERO and values["b"] == ZERO

    def test_nand_output_zero_forces_inputs(self):
        c = mk([("o", "NAND", ["a", "b"])])
        values = imply(c, {"o": 0})
        assert values["a"] == ONE and values["b"] == ONE

    def test_or_output_one_last_unknown(self):
        c = mk([("o", "OR", ["a", "b"])])
        values = imply(c, {"o": 1, "b": 0})
        assert values["a"] == ONE

    def test_not_bidirectional(self):
        c = mk([("o", "NOT", ["a"])])
        assert imply(c, {"o": 1})["a"] == ZERO
        assert imply(c, {"a": 1})["o"] == ZERO

    def test_xor_last_unknown(self):
        c = mk([("o", "XOR", ["a", "b"])])
        values = imply(c, {"o": 1, "a": 1})
        assert values["b"] == ZERO
        values = imply(c, {"o": 1, "a": 0})
        assert values["b"] == ONE

    def test_xnor_last_unknown(self):
        c = mk([("o", "XNOR", ["a", "b"])])
        assert imply(c, {"o": 1, "a": 1})["b"] == ONE

    def test_chained_implication(self):
        c = mk([("m", "AND", ["a", "b"]), ("o", "OR", ["m", "cc"])])
        values = imply(c, {"o": 0})
        # o = 0 -> m = 0 and cc = 0; m = 0 alone does not force a/b.
        assert values["m"] == ZERO and values["cc"] == ZERO
        assert values["a"] == X

    def test_reconvergence_conflict(self):
        # o = AND(a, na) with na = NOT(a): o = 1 is impossible.
        c = Circuit(name="rc")
        c.add_input("a")
        c.add_gate("na", "NOT", ["a"])
        c.add_gate("o", "AND", ["a", "na"])
        c.add_output("o")
        c.validate()
        assert imply(c, {"o": 1}) is None


class TestFixpoint:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_idempotent_and_sound(self, data):
        """imply(imply(A)) == imply(A), and any full extension is consistent."""
        from repro.circuits.benchmarks import get_circuit
        from repro.logic.simulator import simulate_comb

        c = get_circuit("s27")
        seed = {}
        for line in data.draw(
            st.lists(st.sampled_from(c.comb_input_lines), max_size=4, unique=True)
        ):
            seed[line] = data.draw(st.integers(0, 1))
        values = imply(c, seed)
        assert values is not None  # input-only seeds never conflict
        again = imply(c, binary_only(values))
        assert again == values
        # Soundness: complete the inputs arbitrarily; simulation must agree
        # with every implied value.
        full = {
            line: values[line] if values[line] != X else data.draw(st.integers(0, 1))
            for line in c.comb_input_lines
        }
        sim = simulate_comb(c, full)
        for line, v in values.items():
            if v != X and line in c.gates:
                assert sim[line] == v, line
        for line in c.comb_input_lines:
            if values[line] != X:
                assert sim[line] == values[line]


GATE_TYPES = ("BUF", "NOT", "AND", "NAND", "OR", "NOR", "XOR", "XNOR")


@st.composite
def seeded_circuits(draw):
    """A random small circuit over all eight gate types, plus a seed.

    Fan-ins are drawn with replacement, so repeated fan-in occurs, and
    seeds land on gate lines as well as inputs, so conflicts occur.
    """
    c = Circuit(name="rand")
    lines = [f"i{k}" for k in range(draw(st.integers(1, 4)))]
    for line in lines:
        c.add_input(line)
    for g in range(draw(st.integers(1, 12))):
        gtype = draw(st.sampled_from(GATE_TYPES))
        arity = 1 if gtype in ("BUF", "NOT") else draw(st.integers(2, 4))
        fanin = draw(st.lists(st.sampled_from(lines), min_size=arity, max_size=arity))
        c.add_gate(f"g{g}", gtype, fanin)
        lines.append(f"g{g}")
    c.add_output(lines[-1])
    c.validate()
    seed = draw(st.dictionaries(st.sampled_from(lines), st.integers(0, 1), max_size=5))
    return c, seed


@pytest.fixture(scope="module", params=["s27", "s298"])
def two_frame_model(request):
    from repro.atpg.unroll import TwoFrameModel
    from repro.circuits.benchmarks import get_circuit

    return TwoFrameModel.build(get_circuit(request.param)).model


def assert_matches_reference(c, seed):
    got = imply(c, seed)
    want = imply_reference(c, seed)
    assert got == want
    if got is not None:
        assert list(got) == c.lines


class TestAgainstReference:
    """The event-driven ``imply`` equals the round-robin sweep it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(case=seeded_circuits())
    def test_random_circuits(self, case):
        assert_matches_reference(*case)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_two_frame_models(self, two_frame_model, data):
        c = two_frame_model
        seed = data.draw(
            st.dictionaries(st.sampled_from(c.lines), st.integers(0, 1), max_size=8)
        )
        assert_matches_reference(c, seed)


class TestMerge:
    def test_merge_disjoint(self):
        assert merge_assignments({"a": 1}, {"b": 0}) == {"a": 1, "b": 0}

    def test_merge_agreeing(self):
        assert merge_assignments({"a": 1}, {"a": 1}) == {"a": 1}

    def test_merge_conflict(self):
        assert merge_assignments({"a": 1}, {"a": 0}) is None

    def test_merge_ignores_x(self):
        assert merge_assignments({"a": X}, {"a": 1}) == {"a": 1}

    def test_binary_only(self):
        assert binary_only({"a": 1, "b": X, "c": 0}) == {"a": 1, "c": 0}
