"""Unit tests for the netlist data model."""

import pytest

from repro.circuits.netlist import Circuit, Gate, NetlistError
from repro.circuits.gates import GateType


def tiny():
    c = Circuit(name="tiny")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("n1", "AND", ["a", "b"])
    c.add_gate("n2", "NOT", ["n1"])
    c.add_dff(q="q0", d="n2")
    c.add_gate("n3", "OR", ["q0", "a"])
    c.add_output("n3")
    c.validate()
    return c


class TestConstruction:
    def test_stats(self):
        c = tiny()
        s = c.stats()
        assert s == {
            "inputs": 2,
            "outputs": 1,
            "flops": 1,
            "gates": 3,
            "lines": 6,
            "depth": 2,
        }

    def test_duplicate_input_rejected(self):
        c = Circuit(name="x")
        c.add_input("a")
        with pytest.raises(NetlistError):
            c.add_input("a")

    def test_duplicate_gate_rejected(self):
        c = Circuit(name="x")
        c.add_input("a")
        c.add_gate("n", "BUF", ["a"])
        with pytest.raises(NetlistError):
            c.add_gate("n", "NOT", ["a"])

    def test_duplicate_flop_rejected(self):
        c = Circuit(name="x")
        c.add_input("a")
        c.add_dff(q="q", d="a")
        with pytest.raises(NetlistError):
            c.add_dff(q="q", d="a")

    def test_gate_without_inputs_rejected(self):
        with pytest.raises(NetlistError):
            Gate(name="n", gate_type=GateType.AND, inputs=())

    def test_unary_gate_arity_enforced(self):
        with pytest.raises(NetlistError):
            Gate(name="n", gate_type=GateType.NOT, inputs=("a", "b"))

    def test_sequential_gate_type_rejected(self):
        with pytest.raises(NetlistError):
            Gate(name="n", gate_type=GateType.DFF, inputs=("a",))


class TestValidation:
    def test_undriven_gate_input(self):
        c = Circuit(name="x")
        c.add_input("a")
        c.add_gate("n", "AND", ["a", "ghost"])
        with pytest.raises(NetlistError):
            c.validate()

    def test_undriven_output(self):
        c = Circuit(name="x")
        c.add_input("a")
        c.add_output("ghost")
        with pytest.raises(NetlistError):
            c.validate()

    def test_undriven_flop_input(self):
        c = Circuit(name="x")
        c.add_input("a")
        c.add_dff(q="q", d="ghost")
        with pytest.raises(NetlistError):
            c.validate()

    def test_combinational_cycle_detected(self):
        c = Circuit(name="x")
        c.add_input("a")
        c.add_gate("n1", "AND", ["a", "n2"])
        c.add_gate("n2", "NOT", ["n1"])
        with pytest.raises(NetlistError):
            c.validate()

    def test_sequential_loop_is_fine(self):
        c = Circuit(name="x")
        c.add_input("a")
        c.add_gate("n1", "AND", ["a", "q"])
        c.add_dff(q="q", d="n1")
        c.add_output("n1")
        c.validate()


class TestStructure:
    def test_topo_order_respects_dependencies(self):
        c = tiny()
        seen = set(c.comb_input_lines)
        for gate in c.topo_gates:
            assert all(i in seen for i in gate.inputs)
            seen.add(gate.name)

    def test_levels(self):
        c = tiny()
        assert c.levels["a"] == 0
        assert c.levels["q0"] == 0
        assert c.levels["n1"] == 1
        assert c.levels["n2"] == 2
        assert c.levels["n3"] == 1

    def test_fanout(self):
        c = tiny()
        assert set(c.fanout["a"]) == {"n1", "n3"}
        assert c.fanout["n2"] == []

    def test_transitive_fanout(self):
        c = tiny()
        assert c.transitive_fanout("a") == {"n1", "n2", "n3"}
        assert c.transitive_fanout("n2") == set()

    def test_transitive_fanin(self):
        c = tiny()
        assert c.transitive_fanin("n2") == {"n2", "n1", "a", "b"}
        # Several lines: the union of their cones.
        assert c.transitive_fanin("n2", "n3") == c.transitive_fanin("n2") | c.transitive_fanin("n3")

    def test_state_and_next_state_lines(self):
        c = tiny()
        assert c.state_lines == ["q0"]
        assert c.next_state_lines == ["n2"]
        assert c.observation_lines == ["n3", "n2"]

    def test_driver_kind(self):
        c = tiny()
        assert c.driver_kind("a") == "input"
        assert c.driver_kind("q0") == "state"
        assert c.driver_kind("n1") == "gate"
        with pytest.raises(NetlistError):
            c.driver_kind("ghost")

    def test_copy_is_independent(self):
        c = tiny()
        c2 = c.copy(name="tiny2")
        c2.add_input("extra")
        assert "extra" not in c.inputs
        assert c2.name == "tiny2"

    def test_cache_invalidated_on_edit(self):
        c = tiny()
        depth_before = c.depth
        c.add_gate("n4", "NOT", ["n2"])
        c.add_output("n4")
        assert c.depth == depth_before + 1
