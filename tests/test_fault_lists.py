"""Tests for fault-list builders."""

from repro.circuits.benchmarks import get_circuit
from repro.faults.lists import (
    all_transition_faults,
    tpdf_list_all_paths,
    tpdf_list_longest_first,
)
from repro.faults.models import FALL, RISE


class TestBasicLists:
    def test_two_faults_per_line(self):
        c = get_circuit("s27")
        assert len(all_transition_faults(c)) == 2 * c.num_lines

    def test_tpdf_both_directions(self):
        c = get_circuit("s27")
        faults = tpdf_list_all_paths(c)
        assert len(faults) == 56
        directions = {f.direction for f in faults}
        assert directions == {RISE, FALL}

    def test_longest_first_ordering(self):
        c = get_circuit("s298")
        faults = tpdf_list_longest_first(c, max_paths=10)
        lengths = [f.path.length for f in faults[::2]]
        assert lengths == sorted(lengths, reverse=True)

