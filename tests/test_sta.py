"""Tests for the static timing analysis engine with case analysis."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.benchmarks import get_circuit
from repro.circuits.gates import inversion_parity
from repro.circuits.generator import GeneratorSpec, generate
from repro.circuits.library import DEFAULT_LIBRARY, UNIT_DELAY_NS
from repro.experiments.figures import fig_1_4_circuit
from repro.faults.models import FALL, Path, PathDelayFault, RISE
from repro.paths.enumeration import enumerate_paths, k_longest_paths
from repro.paths.selection import PathSelector
from repro.sta.engine import (
    CASE_FALLING,
    CASE_ONE,
    CASE_RISING,
    CASE_ZERO,
    CaseAnalysis,
    StaEngine,
)
from repro.logic.values import X, is_binary


PATH_ACEG = PathDelayFault(Path(lines=("a", "c", "e", "g")), RISE)


class TestCasePropagation:
    def test_constants_propagate(self):
        c = fig_1_4_circuit()
        sta = StaEngine(c)
        pairs = sta.propagate_case(CaseAnalysis(pins={"a": CASE_ONE, "b": CASE_ZERO}))
        assert pairs["c"] == (1, 1)  # OR(1, 0)

    def test_rising_constant(self):
        c = fig_1_4_circuit()
        sta = StaEngine(c)
        pairs = sta.propagate_case(
            CaseAnalysis(pins={"a": CASE_RISING, "b": CASE_ZERO})
        )
        assert pairs["c"] == (0, 1)

    def test_unconstrained_is_x(self):
        c = fig_1_4_circuit()
        sta = StaEngine(c)
        pairs = sta.propagate_case(CaseAnalysis.empty())
        assert pairs["c"] == (X, X)

    @pytest.mark.parametrize("line", ["c", "typo"])
    def test_pin_on_a_non_input_raises(self, line):
        """A gate output or unknown name is an error, never a silent X."""
        sta = StaEngine(fig_1_4_circuit())
        with pytest.raises(ValueError, match=repr(line)):
            sta.propagate_case(CaseAnalysis(pins={"a": CASE_ONE, line: CASE_ZERO}))


class TestPathDelay:
    def test_traditional_delay_is_sum_with_margins(self):
        c = fig_1_4_circuit()
        sta = StaEngine(c)
        delay = sta.path_delay(PATH_ACEG)
        # 3 hops, each with 1 unknown side input.
        lib = DEFAULT_LIBRARY
        expect = 0.0
        for line, edge in (("c", "rise"), ("e", "rise"), ("g", "rise")):
            gate = c.gates[line]
            expect += lib.delay(gate.gate_type, len(gate.inputs), edge)
            expect += sta.side_margin  # one unknown side input each
        assert delay == pytest.approx(expect)

    def test_case_analysis_never_increases_delay(self):
        c = fig_1_4_circuit()
        sta = StaEngine(c)
        base = sta.path_delay(PATH_ACEG)
        case = CaseAnalysis(pins={"b": CASE_ZERO, "d": CASE_ONE, "f": CASE_ZERO})
        constrained = sta.path_delay(PATH_ACEG, case=case)
        assert constrained is not None
        assert constrained <= base
        # All side inputs known: margins vanish entirely.
        assert constrained == pytest.approx(base - 3 * sta.side_margin)

    def test_blocking_constant_prunes_path(self):
        c = fig_1_4_circuit()
        sta = StaEngine(c)
        case = CaseAnalysis(pins={"d": CASE_ZERO})  # blocks the AND gate
        assert sta.path_delay(PATH_ACEG, case=case) is None

    def test_incompatible_source_prunes(self):
        c = fig_1_4_circuit()
        sta = StaEngine(c)
        case = CaseAnalysis(pins={"a": CASE_FALLING})
        assert sta.path_delay(PATH_ACEG, case=case) is None

    def test_rise_fall_differ(self):
        c = fig_1_4_circuit()
        sta = StaEngine(c)
        rise = sta.path_delay(PATH_ACEG)
        fall = sta.path_delay(PathDelayFault(PATH_ACEG.path, FALL))
        assert rise != fall  # OR/AND cells have asymmetric edges

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_monotone_under_any_consistent_case(self, data):
        """Adding case constants can only reduce or block a path's delay."""
        c = get_circuit("s298")
        sta = StaEngine(c)
        from repro.paths.enumeration import k_longest_paths

        path = data.draw(st.sampled_from(k_longest_paths(c, 12)))
        fault = PathDelayFault(path=path, direction=data.draw(st.sampled_from([RISE, FALL])))
        base = sta.path_delay(fault)
        pins = {}
        for line in data.draw(
            st.lists(st.sampled_from(c.comb_input_lines), max_size=5, unique=True)
        ):
            pins[line] = data.draw(
                st.sampled_from([CASE_ZERO, CASE_ONE, CASE_RISING, CASE_FALLING])
            )
        constrained = sta.path_delay(fault, case=CaseAnalysis(pins=pins))
        if base is None:
            assert constrained is None
        elif constrained is not None:
            assert constrained <= base + 1e-12


class TestRankedReport:
    def test_sorted_descending(self):
        c = get_circuit("s298")
        sta = StaEngine(c)
        ranked = sta.ranked_faults(10)
        delays = [d for _, d in ranked]
        assert delays == sorted(delays, reverse=True)
        assert len(ranked) > 0

    def test_faults_at_least_threshold(self):
        c = get_circuit("s298")
        sta = StaEngine(c)
        ranked = sta.ranked_faults(10)
        threshold = ranked[4][1]
        subset = sta.faults_at_least(threshold, CaseAnalysis.empty(), scan=10)
        assert all(d >= threshold - 1e-12 for _, d in subset)

    def test_constant_lines_disable_arcs(self):
        c = fig_1_4_circuit()
        sta = StaEngine(c)
        # d = 0 makes e constant: no ranked fault may route through e.
        ranked = sta.ranked_faults(20, case=CaseAnalysis(pins={"d": CASE_ZERO}))
        for fault, _ in ranked:
            assert "e" not in fault.path.lines


class TestLibrary:
    def test_unit_delay_is_inverter_rise(self):
        from repro.circuits.gates import GateType

        assert DEFAULT_LIBRARY.delay(GateType.NOT, 1, "rise") == UNIT_DELAY_NS

    def test_fanin_penalty(self):
        from repro.circuits.gates import GateType

        lib = DEFAULT_LIBRARY
        assert lib.delay(GateType.AND, 4, "rise") > lib.delay(GateType.AND, 2, "rise")

    def test_circuit_area_positive(self):
        c = get_circuit("s298")
        assert DEFAULT_LIBRARY.circuit_area(c) > 0


class TestRankedExactness:
    def test_ranked_matches_bruteforce_on_s27(self):
        """ranked_faults reproduces brute-force delay ordering exactly."""
        from repro.circuits.benchmarks import get_circuit
        from repro.paths.enumeration import enumerate_paths

        c = get_circuit("s27")
        sta = StaEngine(c)
        brute = []
        for path in enumerate_paths(c):
            for direction in (RISE, FALL):
                fault = PathDelayFault(path=path, direction=direction)
                delay = sta.path_delay(fault)
                if delay is not None:
                    brute.append((fault, delay))
        brute.sort(key=lambda item: -item[1])
        ranked = sta.ranked_faults(len(brute), overscan=8)
        top = min(len(ranked), 10)
        assert [round(d, 9) for _, d in ranked[:top]] == [
            round(d, 9) for _, d in brute[:top]
        ]


def reference_hop(sta, line, edge, pairs, through):
    """One hop's delay by definition: the library arc, the fan-out load and
    one ``side_margin`` per side input (``src != through``) whose
    two-pattern value is not fully known."""
    circuit, lib = sta.circuit, sta.library
    gate = circuit.gates[line]
    base = lib.delay(gate.gate_type, len(gate.inputs), edge)
    load = lib.load_penalty * max(0, len(circuit.fanout.get(line, ())) - 1)
    unknown_sides = 0
    for src in gate.inputs:
        if src == through:
            continue
        p1, p2 = pairs[src]
        if not (is_binary(p1) and is_binary(p2)):
            unknown_sides += 1
    return base + load + unknown_sides * sta.side_margin


def reference_path_delay(sta, fault, pairs):
    """A path's delay hop by hop from the source, each hop's polarity from
    the count of inverting gates between the source and that line."""
    circuit = sta.circuit
    lines = fault.path.lines
    total = 0.0
    for i, line in enumerate(lines):
        inversions = sum(
            inversion_parity(circuit.gates[on].gate_type) for on in lines[1 : i + 1]
        )
        want1 = (0 if fault.direction == RISE else 1) ^ (inversions % 2)
        want2 = 1 - want1
        have1, have2 = pairs[line]
        if (is_binary(have1) and have1 != want1) or (is_binary(have2) and have2 != want2):
            return None
        if i:
            edge = "rise" if want2 == 1 else "fall"
            total += reference_hop(sta, line, edge, pairs, through=lines[i - 1])
    return total


def assert_matches_reference(sta, faults, case):
    """``path_delay`` equals the hop-by-hop reference exactly, not approximately."""
    pairs = sta.propagate_case(case)
    for fault in faults:
        want = reference_path_delay(sta, fault, pairs)
        assert sta.path_delay(fault, pairs=pairs) == want, fault
        assert sta.path_delay(fault, case=case) == want, fault


class TestAgainstHopReference:
    """The one-walk ``path_delay`` adds the same floats in the same order as
    the hop-by-hop definition it replaced."""

    def test_every_path_of_s27(self):
        sta = StaEngine(get_circuit("s27"))
        faults = [
            PathDelayFault(path, direction)
            for path in enumerate_paths(sta.circuit)
            for direction in (RISE, FALL)
        ]
        assert_matches_reference(sta, faults, CaseAnalysis.empty())

    def test_ranked_s298_faults_under_each_screened_case(self):
        selector = PathSelector(get_circuit("s298"), closure_scan=24)
        result = selector.run(6)
        sta = selector.sta
        cases = [CaseAnalysis.empty()] + [
            selector.case_of(record.assignments) for record in result.records.values()
        ]
        assert len(cases) > 6 and any(case.pins for case in cases)
        for case in cases:
            ranked = sta.ranked_faults(24, case=case)
            assert ranked
            pairs = sta.propagate_case(case)
            for fault, delay in ranked:
                assert delay == reference_path_delay(sta, fault, pairs), fault
            assert_matches_reference(sta, [fault for fault, _ in ranked], case)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_circuits_under_drawn_pins(self, data):
        spec = GeneratorSpec(
            name="sta", n_inputs=5, n_outputs=3, n_flops=4, n_gates=40,
            seed=data.draw(st.integers(0, 50)),
        )
        sta = StaEngine(generate(spec))
        values = st.sampled_from([CASE_ZERO, CASE_ONE, CASE_RISING, CASE_FALLING, (X, 1), (0, X)])
        pins = {
            line: data.draw(values)
            for line in sta.circuit.comb_input_lines
            if data.draw(st.booleans())
        }
        case = CaseAnalysis(pins=pins)
        faults = [
            PathDelayFault(path, direction)
            for path in k_longest_paths(sta.circuit, 60)
            for direction in (RISE, FALL)
        ]
        assert_matches_reference(sta, faults, case)
        pairs = sta.propagate_case(case)
        arrival = {line: 0.0 for line in sta.circuit.comb_input_lines}
        for gate in sta.circuit.topo_gates:
            worst = 0.0
            for src in gate.inputs:
                hop = max(
                    reference_hop(sta, gate.name, "rise", pairs, through=src),
                    reference_hop(sta, gate.name, "fall", pairs, through=src),
                )
                worst = max(worst, arrival[src] + hop)
            arrival[gate.name] = worst
        assert sta.worst_arrival(case) == arrival
