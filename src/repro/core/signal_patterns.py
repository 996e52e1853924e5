"""Patterns of signal-transitions ([90], Section 5.1 future work).

The dissertation's future-work metric: instead of bounding only the
*count* of switching lines per state-transition, require every test
state-transition's **pattern of signal-transitions** -- the set of
(line, transition-direction) pairs that toggle -- to be a *subset* of a
pattern observed under the functional input sequences.  This excludes
both excessive switching and signal transitions that can never happen in
functional mode (the slow-path overtesting the SWA metric misses).

Implemented here as the extension the conclusions call for:

* :func:`transition_pattern` -- the pattern of one state-transition;
* :class:`FunctionalPatternBank` -- patterns collected from functional
  sequences, with the subset admissibility query and
  :meth:`~FunctionalPatternBank.prefix_length`, the segment truncation
  :class:`repro.core.builtin_gen.BuiltinGenerator` applies under the
  pattern rule in place of its SWA truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.circuits.netlist import Circuit
from repro.logic.simulator import simulate_sequence

#: A pattern of signal-transitions: frozenset of (line, rises?) pairs.
Pattern = frozenset


def transition_pattern(
    prev_values: dict[str, int], values: dict[str, int]
) -> Pattern:
    """The set of (line, direction) pairs toggling between two cycles."""
    return frozenset(
        (line, v == 1)
        for line, v in values.items()
        if v != prev_values[line]
    )


@dataclass
class FunctionalPatternBank:
    """Patterns of signal-transitions observed under functional sequences."""

    patterns: list[Pattern] = field(default_factory=list)
    #: union of all functional patterns: cheap necessary condition
    union: set = field(default_factory=set)

    @classmethod
    def collect(
        cls,
        circuit: Circuit,
        initial_state: Sequence[int],
        sequences: Sequence[Sequence[Sequence[int]]],
    ) -> "FunctionalPatternBank":
        """Simulate functional sequences and record per-cycle patterns."""
        bank = cls()
        for seq in sequences:
            result = simulate_sequence(circuit, initial_state, seq)
            for prev, cur in zip(result.line_values, result.line_values[1:]):
                pattern = transition_pattern(prev, cur)
                bank.patterns.append(pattern)
                bank.union.update(pattern)
        # Keep only maximal patterns: a pattern contained in another adds
        # no admissibility, and dropping it speeds up the subset scan.
        bank.patterns.sort(key=len, reverse=True)
        maximal: list[Pattern] = []
        for p in bank.patterns:
            if not any(p <= q for q in maximal):
                maximal.append(p)
        bank.patterns = maximal
        return bank

    def admits(self, pattern: Pattern) -> bool:
        """Whether a test-time pattern is a subset of some functional pattern.

        Guarantees both (a) switching activity no higher than functional
        (the subset has no more lines) and (b) only functionally possible
        signal transitions.
        """
        if not pattern <= self.union:
            return False
        return any(pattern <= functional for functional in self.patterns)

    def prefix_length(self, line_values: Sequence[Mapping[str, int]]) -> int:
        """Longest even prefix of a trajectory whose every state-transition is admitted.

        ``line_values`` holds the per-cycle line valuations of a simulated
        sequence.  As Fig 4.9 truncates by SWA: with the first inadmissible
        transition into cycle ``j + 1``, the prefix is ``P(0..j-1)`` when
        ``j`` is even, else ``P(0..j-2)``.
        """
        n = len(line_values)
        for i in range(1, n):
            if not self.admits(transition_pattern(line_values[i - 1], line_values[i])):
                n = i - 1
                break
        return n - n % 2
