"""Delay-fault models (Sections 1.1, 1.2 and 2.2).

Implemented models:

* :class:`StuckAtFault` -- the structural primitive every delay-fault
  detection reduces to.
* :class:`TransitionFault` -- slow-to-rise / slow-to-fall at one line; the
  "gross delay" model.  Under a broadside test it is detected when the
  first pattern sets the line to the initial transition value and the
  second pattern detects the corresponding stuck-at fault (Section 1.2).
* :class:`Path` plus :class:`PathDelayFault` -- cumulative small delays
  along one structural path, with the robust / strong non-robust / weak
  non-robust sensitization hierarchy (Section 1.2).
* :class:`TransitionPathDelayFault` -- the Chapter 2 model from [14]: the
  fault is detected iff *all* individual transition faults along the path
  are detected by the same test, capturing small and large defects
  simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.gates import inversion_parity
from repro.circuits.netlist import Circuit, NetlistError

RISE = "rise"
FALL = "fall"
_DIRECTIONS = (RISE, FALL)


@dataclass(frozen=True)
class StuckAtFault:
    """Line stuck at a constant value."""

    line: str
    value: int

    def __str__(self) -> str:
        return f"{self.line} s-a-{self.value}"


@dataclass(frozen=True)
class TransitionFault:
    """A slow-to-rise (``rise``) or slow-to-fall (``fall``) fault at a line.

    A ``rise`` fault delays the 0->1 transition: the initial value is 0,
    the final value 1, and in the second pattern the line behaves as stuck
    at the initial value 0.
    """

    line: str
    direction: str

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be 'rise' or 'fall', not {self.direction!r}")

    @property
    def initial_value(self) -> int:
        """The value the first pattern must set at the line (v)."""
        return 0 if self.direction == RISE else 1

    @property
    def final_value(self) -> int:
        """The fault-free value under the second pattern (v')."""
        return 1 if self.direction == RISE else 0

    @property
    def stuck_value(self) -> int:
        """The value the line is effectively stuck at in the launch-to-capture cycle."""
        return self.initial_value

    @property
    def as_stuck_at(self) -> StuckAtFault:
        """The second-frame stuck-at fault whose detection completes this fault's."""
        return StuckAtFault(line=self.line, value=self.stuck_value)

    def __str__(self) -> str:
        return f"{self.line} slow-to-{self.direction}"


@dataclass(frozen=True)
class Path:
    """A structural combinational path ``g1 - g2 - ... - gk``.

    ``lines[0]`` is the source (a primary input, present-state line or gate
    output); every subsequent line must be the output of a gate that reads
    the previous line.
    """

    lines: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.lines) < 1:
            raise ValueError("a path needs at least one line")

    @property
    def source(self) -> str:
        """First line on the path."""
        return self.lines[0]

    @property
    def sink(self) -> str:
        """Last line on the path."""
        return self.lines[-1]

    @property
    def length(self) -> int:
        """Number of lines on the path (the paper's k)."""
        return len(self.lines)

    def validate(self, circuit: Circuit) -> None:
        """Check each hop is a real gate edge; raises :class:`NetlistError`."""
        for prev, cur in zip(self.lines, self.lines[1:]):
            gate = circuit.gates.get(cur)
            if gate is None or prev not in gate.inputs:
                raise NetlistError(f"{prev} -> {cur} is not a gate edge")

    def __str__(self) -> str:
        return "-".join(self.lines)


@dataclass(frozen=True)
class PathDelayFault:
    """Cumulative delay along ``path`` launched by a ``direction`` transition at its source."""

    path: Path
    direction: str

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be 'rise' or 'fall', not {self.direction!r}")

    def transitions(self, circuit: Circuit) -> list[tuple[int, int]]:
        """The ``(v_i, v_i')`` transition expected on every on-path line.

        One walk from the source: ``v_1`` is 0 for a rising and 1 for a
        falling launch, and each inverting gate on the path complements
        it, so ``v_i = v_1`` when the number of inverters between the
        source and line ``i`` is even (Section 2.2).
        """
        v = 0 if self.direction == RISE else 1
        out = [(v, 1 - v)]
        gates = circuit.gates
        for line in self.path.lines[1:]:
            v ^= inversion_parity(gates[line].gate_type)
            out.append((v, 1 - v))
        return out

    def __str__(self) -> str:
        return f"{self.path} ({self.direction} at {self.path.source})"


@dataclass(frozen=True)
class TransitionPathDelayFault:
    """The transition path delay fault model of [14] (Section 2.2).

    Detected iff every constituent transition fault along the path is
    detected by the same test; tests for these faults are strong
    non-robust tests for the corresponding standard path delay fault.
    """

    path: Path
    direction: str

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be 'rise' or 'fall', not {self.direction!r}")

    @property
    def as_path_delay_fault(self) -> PathDelayFault:
        """The standard path delay fault on the same path/transition."""
        return PathDelayFault(path=self.path, direction=self.direction)

    def transition_faults(self, circuit: Circuit) -> list[TransitionFault]:
        """The set ``TR(fp)``: one transition fault per on-path line.

        The transition on ``g_i`` matches the source polarity adjusted by
        the inversion parity of the gates traversed.  When the path visits
        the same line with the same polarity twice (impossible on simple
        paths) duplicates are removed.
        """
        faults: list[TransitionFault] = []
        seen: set[TransitionFault] = set()
        transitions = self.as_path_delay_fault.transitions(circuit)
        for line, (v_i, _) in zip(self.path.lines, transitions):
            tr = TransitionFault(line=line, direction=RISE if v_i == 0 else FALL)
            if tr not in seen:
                seen.add(tr)
                faults.append(tr)
        return faults

    def __str__(self) -> str:
        return f"TPDF {self.path} ({self.direction} at {self.path.source})"


Fault = StuckAtFault | TransitionFault | PathDelayFault | TransitionPathDelayFault


def opposite(direction: str) -> str:
    """The other transition direction."""
    return FALL if direction == RISE else RISE
