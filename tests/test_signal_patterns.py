"""Tests for the pattern-of-signal-transitions extension ([90])."""

import random

import pytest

from repro.circuits.benchmarks import get_circuit
from repro.core.signal_patterns import FunctionalPatternBank, transition_pattern
from repro.logic.simulator import simulate_sequence


@pytest.fixture(scope="module")
def bank_setup():
    c = get_circuit("s298")
    rng = random.Random(0)
    seqs = [
        [[rng.randint(0, 1) for _ in c.inputs] for _ in range(30)] for _ in range(3)
    ]
    bank = FunctionalPatternBank.collect(c, [0] * 14, seqs)
    return c, seqs, bank


class TestTransitionPattern:
    def test_empty_when_no_change(self):
        assert transition_pattern({"a": 1}, {"a": 1}) == frozenset()

    def test_direction_recorded(self):
        p = transition_pattern({"a": 0, "b": 1}, {"a": 1, "b": 0})
        assert ("a", True) in p
        assert ("b", False) in p


class TestBank:
    def test_functional_patterns_admitted(self, bank_setup):
        """Every pattern from the collection sequences is admissible."""
        c, seqs, bank = bank_setup
        res = simulate_sequence(c, [0] * 14, seqs[0])
        for prev, cur in zip(res.line_values, res.line_values[1:]):
            assert bank.admits(transition_pattern(prev, cur))

    def test_novel_transition_rejected(self, bank_setup):
        c, _, bank = bank_setup
        # A pattern toggling every line in both directions at once cannot
        # be a subset of any real single-cycle pattern.
        impossible = frozenset(
            (line, d) for line in c.lines for d in (True, False)
        )
        assert not bank.admits(impossible)

    def test_subset_of_functional_admitted(self, bank_setup):
        _, _, bank = bank_setup
        big = max(bank.patterns, key=len)
        some = frozenset(list(big)[: max(1, len(big) // 2)])
        assert bank.admits(some)

    def test_maximal_filter(self, bank_setup):
        _, _, bank = bank_setup
        for i, p in enumerate(bank.patterns):
            for j, q in enumerate(bank.patterns):
                if i != j:
                    assert not (p < q)


class TestPrefix:
    def test_prefix_even(self, bank_setup):
        c, _, bank = bank_setup
        rng = random.Random(7)
        seq = [[rng.randint(0, 1) for _ in c.inputs] for _ in range(20)]
        length = bank.prefix_length(simulate_sequence(c, [0] * 14, seq).line_values)
        assert length % 2 == 0
        assert 0 <= length <= 20

    def test_collection_sequence_fully_admissible(self, bank_setup):
        c, seqs, bank = bank_setup
        length = bank.prefix_length(simulate_sequence(c, [0] * 14, seqs[0]).line_values)
        assert length == len(seqs[0])

    @pytest.mark.parametrize("bad_cycle, expect", [(3, 2), (4, 2), (5, 4), (None, 6)])
    def test_cut_before_the_first_inadmissible_transition(self, bad_cycle, expect):
        """The prefix ends at the last even length before the first violation."""
        bank = FunctionalPatternBank(patterns=[frozenset({("a", True)})], union={("a", True)})
        # "a" rises into cycle 1 (admitted) and falls only into ``bad_cycle``.
        values = [0] + [1] * 6
        if bad_cycle is not None:
            values[bad_cycle:] = [0] * (len(values) - bad_cycle)
        assert bank.prefix_length([{"a": v} for v in values]) == expect
