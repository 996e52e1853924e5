"""Tests for the Chapter 3 path-selection procedure."""

import pytest

from repro.circuits.benchmarks import get_circuit
from repro.paths.selection import PathSelector


@pytest.fixture(scope="module")
def s298_selection():
    selector = PathSelector(get_circuit("s298"), closure_scan=24)
    result = selector.run(n=5, m=64, max_pool=2048)
    return selector, result


class TestRun:
    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_count_is_rejected(self, n):
        selector = PathSelector(get_circuit("s27"), closure_scan=24)
        with pytest.raises(ValueError, match="n must be a positive path count"):
            selector.run(n=n)

    def test_requested_count_met_or_ties(self, s298_selection):
        _, result = s298_selection
        assert result.original_size >= 5

    def test_all_targets_potentially_detectable(self, s298_selection):
        _, result = s298_selection
        for fault in result.final_target:
            assert not result.records[fault].assignments.undetectable

    def test_final_superset_of_initial(self, s298_selection):
        _, result = s298_selection
        assert set(result.initial_target) <= set(result.final_target)

    def test_final_delay_never_exceeds_original(self, s298_selection):
        _, result = s298_selection
        for fault in result.final_target:
            record = result.records[fault]
            if record.final_delay is not None:
                assert record.final_delay <= record.original_delay + 1e-12

    def test_discovered_faults_marked(self, s298_selection):
        _, result = s298_selection
        for fault in result.final_target:
            record = result.records[fault]
            if record.added_by_procedure:
                assert fault not in result.initial_target

    def test_select_is_sorted_by_final_delay(self, s298_selection):
        _, result = s298_selection
        chosen = result.select(5)
        delays = [result.records[f].final_delay or 0.0 for f in chosen]
        assert delays == sorted(delays, reverse=True)
        assert len(chosen) <= 5

    def test_unique_count_bounded(self, s298_selection):
        _, result = s298_selection
        assert 0 <= result.unique_to_one_set(5) <= 10

    def test_undetectable_list_disjoint_from_target(self, s298_selection):
        _, result = s298_selection
        assert not set(result.undetectable) & set(result.final_target)


class TestAfterTg:
    def test_after_tg_at_most_final(self, s298_selection):
        """original >= final >= after-TG for any fault with a test."""
        selector, result = s298_selection
        checked = 0
        for fault in result.select(5):
            record = result.records[fault]
            if record.final_delay is None:
                continue
            after = selector.after_tg_delay(fault)
            if after is None:
                continue
            assert after <= record.final_delay + 1e-12
            assert record.final_delay <= record.original_delay + 1e-12
            checked += 1
        assert checked >= 1


class TestCaseOf:
    def test_case_pairs_round_trip(self, s298_selection):
        selector, result = s298_selection
        fault = result.final_target[0]
        assignments = result.records[fault].assignments
        case = selector.case_of(assignments)
        for name, pair in case.pins.items():
            assert assignments.paired_inputs()[name] == pair
