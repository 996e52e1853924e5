"""Tests for the scalar three-valued simulator."""

import pytest

from repro.circuits.benchmarks import get_circuit
from repro.circuits.netlist import Circuit
from repro.logic.patterns import BroadsideTest, Pattern, pattern_values, values_to_pattern
from repro.logic.simulator import (
    extract_tests_from_sequence,
    make_broadside_test,
    next_state,
    output_values,
    simulate_broadside,
    simulate_comb,
    simulate_pattern,
    simulate_sequence,
    verify_broadside,
)
from repro.logic.values import ONE, X, ZERO


def toggler():
    """1-flop circuit: q toggles when en=1 (q' = q XOR en)."""
    c = Circuit(name="toggler")
    c.add_input("en")
    c.add_gate("nxt", "XOR", ["q", "en"])
    c.add_dff(q="q", d="nxt")
    c.add_output("nxt")
    c.validate()
    return c


class TestComb:
    def test_missing_inputs_are_x(self):
        c = get_circuit("s27")
        values = simulate_comb(c, {})
        assert all(values[pi] == X for pi in c.inputs)

    def test_known_values_s27(self):
        c = get_circuit("s27")
        values = simulate_comb(
            c, {"G0": 0, "G1": 0, "G2": 0, "G3": 0, "G5": 0, "G6": 0, "G7": 0}
        )
        # G14 = NOT(G0) = 1; G8 = AND(G14, G6) = 0; G12 = NOR(G1, G7) = 1
        assert values["G14"] == ONE
        assert values["G8"] == ZERO
        assert values["G12"] == ONE
        assert values["G11"] in (ZERO, ONE)

    def test_x_propagates(self):
        c = get_circuit("s27")
        values = simulate_comb(c, {"G0": 1})
        assert values["G14"] == ZERO  # NOT(1)
        assert values["G8"] == ZERO  # AND(0, X)


class TestSequence:
    def test_toggler_states(self):
        c = toggler()
        res = simulate_sequence(c, [0], [[1], [1], [0], [1]])
        assert [s[0] for s in res.states] == [0, 1, 0, 0, 1]

    def test_initial_state_size_checked(self):
        c = toggler()
        with pytest.raises(ValueError):
            simulate_sequence(c, [0, 1], [[1]])

    def test_switching_cycle0_undefined(self):
        c = toggler()
        res = simulate_sequence(c, [0], [[1], [1]])
        assert res.switching[0] == 0.0

    def test_switching_hand_computed(self):
        c = toggler()
        # cycle0: en=1, q=0, nxt=1.  cycle1: en=1 (steady), q=1, nxt=0.
        # 2 of 3 lines change -> 66.7%.
        res = simulate_sequence(c, [0], [[1], [1]])
        assert res.switching[1] == pytest.approx(200.0 / 3.0)

    def test_switching_no_change(self):
        c = toggler()
        res = simulate_sequence(c, [0], [[0], [0]])
        assert res.switching[1] == pytest.approx(0.0)

    def test_keep_line_values_flag(self):
        c = toggler()
        assert simulate_sequence(c, [0], [[1]], keep_line_values=False).line_values == []
        assert len(simulate_sequence(c, [0], [[1]]).line_values) == 1


class TestBroadside:
    def test_make_broadside_derives_s2(self):
        c = toggler()
        t = make_broadside_test(c, [0], [1], [1])
        assert t.s2 == (1,)
        assert verify_broadside(c, t)

    def test_verify_rejects_wrong_s2(self):
        c = toggler()
        bad = BroadsideTest(s1=(0,), v1=(1,), s2=(0,), v2=(1,))
        assert not verify_broadside(c, bad)

    def test_verify_accepts_x(self):
        c = toggler()
        bad = BroadsideTest(s1=(0,), v1=(1,), s2=(X,), v2=(1,))
        assert verify_broadside(c, bad)

    def test_simulate_broadside_frames(self):
        c = toggler()
        t = make_broadside_test(c, [0], [1], [0])
        f1, f2 = simulate_broadside(c, t)
        assert f1["nxt"] == 1
        assert f2["q"] == 1
        assert f2["nxt"] == 1  # XOR(1, 0)

    def test_extract_tests_spacing(self):
        c = toggler()
        seq = [[1]] * 8
        res = simulate_sequence(c, [0], seq)
        tests = extract_tests_from_sequence(c, res, seq)
        assert len(tests) == 4
        assert [t.source_cycle for t in tests] == [0, 2, 4, 6]
        for t in tests:
            assert verify_broadside(c, t)

    def test_extract_tests_stop_at_the_last_complete_pair(self):
        """Every-cycle tests (2**0) end at t(L-2): t(L-1) has no p(L)."""
        c = toggler()
        seq = [[1], [0], [1], [1], [0]]
        res = simulate_sequence(c, [0], seq)
        tests = extract_tests_from_sequence(c, res, seq, spacing=1)
        assert [t.source_cycle for t in tests] == [0, 1, 2, 3]
        assert all(verify_broadside(c, t) for t in tests)
        odd = extract_tests_from_sequence(c, res, seq, spacing=2)
        assert [t.source_cycle for t in odd] == [0, 2]

    def test_extracted_tests_chain_states(self):
        c = toggler()
        seq = [[1], [0], [1], [1]]
        res = simulate_sequence(c, [0], seq)
        tests = extract_tests_from_sequence(c, res, seq)
        assert tests[0].s1 == tuple(res.states[0])
        assert tests[1].s1 == tuple(res.states[2])


class TestPatterns:
    def test_pattern_values_round_trip(self):
        c = get_circuit("s27")
        p = Pattern(state=(0, 1, 0), pi=(1, 0, 1, 1))
        values = pattern_values(c, p)
        assert values["G0"] == 1 and values["G5"] == 0
        assert values_to_pattern(c, values) == p

    def test_str(self):
        t = BroadsideTest(s1=(0,), v1=(1,), s2=(1,), v2=(0,))
        assert str(t) == "<0, 1, 1, 0>"
        assert str(t.first) == "<0, 1>"

    def test_output_values(self):
        c = toggler()
        values = simulate_pattern(c, Pattern(state=(1,), pi=(0,)))
        assert output_values(c, values) == (1,)
        assert next_state(c, values) == (1,)
