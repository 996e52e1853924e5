"""Tests for the static timing analysis engine with case analysis."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.benchmarks import get_circuit
from repro.circuits.library import DEFAULT_LIBRARY, UNIT_DELAY_NS
from repro.experiments.figures import fig_1_4_circuit
from repro.faults.models import FALL, Path, PathDelayFault, RISE
from repro.sta.engine import (
    CASE_FALLING,
    CASE_ONE,
    CASE_RISING,
    CASE_ZERO,
    CaseAnalysis,
    StaEngine,
)
from repro.logic.values import X


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
