"""Tests for structural path enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.benchmarks import get_circuit
from repro.paths.enumeration import (
    count_paths,
    enumerate_paths,
    iter_paths,
    k_longest_paths,
    path_delay,
    unit_delay,
)


class TestEnumerate:
    def test_s27_known_count(self):
        c = get_circuit("s27")
        paths = enumerate_paths(c)
        assert len(paths) == 28  # the paper's 56 TPDFs / 2 directions

    def test_count_matches_enumeration(self):
        c = get_circuit("s27")
        assert count_paths(c) == len(enumerate_paths(c))

    def test_count_matches_enumeration_s298(self):
        c = get_circuit("s298")
        assert count_paths(c) == len(enumerate_paths(c, limit=10**6))

    def test_limit_enforced(self):
        c = get_circuit("s298")
        with pytest.raises(ValueError):
            enumerate_paths(c, limit=10)

    def test_paths_are_valid(self):
        c = get_circuit("s27")
        for path in enumerate_paths(c):
            path.validate(c)
            assert path.source in c.comb_input_lines
            assert path.sink in set(c.observation_lines)

    def test_paths_unique(self):
        c = get_circuit("s27")
        paths = enumerate_paths(c)
        assert len({p.lines for p in paths}) == len(paths)

    def test_iter_is_lazy(self):
        c = get_circuit("s298")
        gen = iter_paths(c)
        first = next(gen)
        first.validate(c)


class TestKLongest:
    def test_nonincreasing_order(self):
        c = get_circuit("s298")
        paths = k_longest_paths(c, 25)
        lengths = [path_delay(p) for p in paths]
        assert lengths == sorted(lengths, reverse=True)

    def test_matches_exhaustive_top(self):
        """The K longest really are the K longest (vs full enumeration)."""
        c = get_circuit("s27")
        every = sorted(enumerate_paths(c), key=lambda p: -path_delay(p))
        top = k_longest_paths(c, 5)
        assert [path_delay(p) for p in top] == [path_delay(p) for p in every[:5]]

    def test_k_larger_than_path_count(self):
        c = get_circuit("s27")
        assert len(k_longest_paths(c, 10_000)) == 28

    def test_custom_delay_fn(self):
        c = get_circuit("s27")
        # Weight only NOR gates: ordering changes accordingly.
        def weight(line):
            gate = c.gates.get(line)
            from repro.circuits.gates import GateType

            return 5.0 if gate and gate.gate_type == GateType.NOR else 1.0

        paths = k_longest_paths(c, 5, delay_fn=weight)
        weights = [path_delay(p, weight) for p in paths]
        assert weights == sorted(weights, reverse=True)

    @settings(max_examples=10, deadline=None)
    @given(k=st.integers(1, 30))
    def test_prefix_property(self, k):
        """k_longest(k) is the first k paths of k_longest(k+5)."""
        c = get_circuit("s298")
        small = k_longest_paths(c, k)
        assert len(small) == k
        assert small == k_longest_paths(c, k + 5)[:k]

    def test_unit_delay(self):
        assert unit_delay("anything") == 1.0
        from repro.faults.models import Path

        assert path_delay(Path(lines=("a", "b", "c"))) == 2.0
