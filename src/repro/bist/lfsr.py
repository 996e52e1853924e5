"""Linear feedback shift registers and MISRs (Figs 4.3 and 4.4).

Cycle-accurate behavioural models of the pseudo-random pattern generator
and output response analyzer of generic built-in test generation
(Section 4.2):

* :class:`Lfsr` -- an n-stage Fibonacci LFSR.  With a primitive feedback
  polynomial it cycles through all ``2**n - 1`` non-zero states; each bit
  is 0/1 with probability 1/2 over the period.
* :class:`Misr` -- a multiple-input signature register derived from the
  same structure; test responses are XOR-compacted into the register
  state, whose final value is the signature compared against the
  fault-free reference.

The primitive-polynomial table covers all sizes used by the flow
(the developed TPG uses a fixed ``N_LFSR = 32``-stage LFSR).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.obs import OBS

#: Primitive polynomial tap positions (1-based exponents, excluding x^0)
#: for maximal-length LFSRs.  ``x^n + x^k + ... + 1`` is stored as
#: ``(n, k, ...)``.
PRIMITIVE_TAPS: dict[int, tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 11, 10, 4),
    13: (13, 12, 11, 8),
    14: (14, 13, 12, 2),
    15: (15, 14),
    16: (16, 15, 13, 4),
    17: (17, 14),
    18: (18, 11),
    19: (19, 18, 17, 14),
    20: (20, 17),
    21: (21, 19),
    22: (22, 21),
    23: (23, 18),
    24: (24, 23, 22, 17),
    25: (25, 22),
    26: (26, 25, 24, 20),
    27: (27, 26, 25, 22),
    28: (28, 25),
    29: (29, 27),
    30: (30, 29, 28, 7),
    31: (31, 28),
    32: (32, 31, 30, 10),
    33: (33, 20),
    40: (40, 38, 21, 19),
    48: (48, 47, 21, 20),
    64: (64, 63, 61, 60),
}


def primitive_taps(n: int) -> tuple[int, ...]:
    """Tap positions for an ``n``-stage maximal-length LFSR."""
    try:
        return PRIMITIVE_TAPS[n]
    except KeyError:
        raise ValueError(f"no primitive polynomial tabulated for n={n}") from None


def tap_mask(taps: Sequence[int]) -> int:
    """Bit mask with a 1 at stage ``Q(t)`` (bit ``t - 1``) for every tap."""
    mask = 0
    for t in taps:
        mask |= 1 << (t - 1)
    return mask


@dataclass
class Lfsr:
    """An n-stage Fibonacci LFSR.

    ``state[0]`` is stage ``Q1`` (the stage shifted *into*); the feedback
    bit is the XOR of the tapped stages and becomes the new ``Q1`` while
    everything else shifts right, matching Fig 4.3.
    """

    n: int
    taps: tuple[int, ...] | None = None
    seed: int = 1

    def __post_init__(self) -> None:
        if self.taps is None:
            self.taps = primitive_taps(self.n)
        if not 0 < self.seed < (1 << self.n):
            raise ValueError("seed must be a non-zero n-bit value")
        self._state = self.seed
        self._mask = (1 << self.n) - 1
        self._tap_mask = tap_mask(self.taps)

    @property
    def state(self) -> int:
        """Current state as an integer (bit ``i`` = stage ``Q(i+1)``)."""
        return self._state

    @property
    def bits(self) -> list[int]:
        """Current state as a list ``[Q1, ..., Qn]``."""
        return [(self._state >> i) & 1 for i in range(self.n)]

    def reseed(self, seed: int) -> None:
        """Load a new (non-zero) seed."""
        if not 0 < seed < (1 << self.n):
            raise ValueError("seed must be a non-zero n-bit value")
        self._state = seed

    def step(self) -> int:
        """Advance one clock; returns the serial output bit.

        The serial stream is tapped at the feedback network (the new
        ``Q1``): it mixes the tapped stages immediately, so even a
        low-weight seed produces a useful stream from the first cycle --
        unlike tapping ``Qn``, which would emit the seed's leading zeros
        for up to ``n`` cycles.

        The feedback bit is the parity of the tapped stages, computed as
        one AND against the precomputed tap mask plus a popcount rather
        than a per-tap Python loop.
        """
        fb = (self._state & self._tap_mask).bit_count() & 1
        self._state = ((self._state << 1) | fb) & self._mask
        return fb

    def run(self, cycles: int) -> list[int]:
        """Advance ``cycles`` clocks; returns the serial output stream."""
        if OBS.enabled:
            OBS.count("lfsr.runs")
            OBS.count("lfsr.cycles", cycles)
        return [self.step() for _ in range(cycles)]

    def period(self, limit: int | None = None) -> int:
        """Cycle length from the current state (maximal = ``2**n - 1``)."""
        limit = limit if limit is not None else (1 << self.n)
        start = self._state
        for i in range(1, limit + 1):
            self.step()
            if self._state == start:
                return i
        raise RuntimeError("period exceeds limit")


class LfsrLanes:
    """Up to 64 independent n-stage LFSRs stepped together, bit-sliced.

    The state is stored *transposed* relative to :class:`Lfsr`: one word
    per stage, where bit ``t`` of ``stage_words[i]`` is stage ``Q(i+1)``
    of lane ``t``.  Stepping all lanes then costs one XOR per tap plus a
    list rotation -- independent of the lane count -- instead of one
    :meth:`Lfsr.step` call per lane.  Lane ``t`` traverses exactly the
    state sequence of ``Lfsr(n=n, taps=taps, seed=seeds[t])``.

    This is the stepping engine behind the multi-seed TPG expansion of
    the packed Fig 4.9 construction loop
    (:meth:`repro.bist.tpg.DevelopedTpg.sequence_batch`).
    """

    def __init__(
        self, n: int, seeds: Sequence[int], taps: Sequence[int] | None = None
    ):
        if not 0 < len(seeds) <= 64:
            raise ValueError("between 1 and 64 lanes required")
        self.n = n
        self.taps: tuple[int, ...] = (
            tuple(taps) if taps is not None else primitive_taps(n)
        )
        self.n_lanes = len(seeds)
        for seed in seeds:
            if not 0 < seed < (1 << n):
                raise ValueError("every seed must be a non-zero n-bit value")
        #: one word per stage; bit ``t`` of word ``i`` is lane ``t``'s Q(i+1)
        self.stage_words: list[int] = [
            sum(((seed >> i) & 1) << t for t, seed in enumerate(seeds))
            for i in range(n)
        ]

    @property
    def states(self) -> list[int]:
        """Per-lane state integers (lane ``t`` = ``Lfsr.state`` equivalent)."""
        return [
            sum(((w >> t) & 1) << i for i, w in enumerate(self.stage_words))
            for t in range(self.n_lanes)
        ]

    def step(self) -> int:
        """Advance every lane one clock; returns the packed serial outputs.

        Bit ``t`` of the returned word is lane ``t``'s serial output bit
        (the new ``Q1``), matching :meth:`Lfsr.step`.
        """
        words = self.stage_words
        fb = 0
        for t in self.taps:
            fb ^= words[t - 1]
        words.insert(0, fb)
        words.pop()
        return fb

    def run(self, cycles: int) -> list[int]:
        """Advance ``cycles`` clocks; returns the packed serial stream."""
        if OBS.enabled:
            OBS.count("lfsr.lane_runs")
            OBS.count("lfsr.lane_cycles", cycles * self.n_lanes)
        return [self.step() for _ in range(cycles)]


@dataclass
class Misr:
    """An n-stage multiple-input signature register (Fig 4.4)."""

    n: int
    taps: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.taps is None:
            self.taps = primitive_taps(self.n)
        self._state = 0
        self._mask = (1 << self.n) - 1
        self._tap_mask = tap_mask(self.taps)

    @property
    def state(self) -> int:
        """Current signature."""
        return self._state

    def reset(self) -> None:
        """Clear the signature register."""
        self._state = 0

    def absorb(self, response: Sequence[int] | int) -> int:
        """Clock once, XOR-ing a parallel response into the register.

        Responses wider than ``n`` bits are space-folded (XOR of n-bit
        chunks), modelling the XOR compactor tree in front of a narrow
        MISR.
        """
        if isinstance(response, int):
            data = 0
            while response:
                data ^= response & ((1 << self.n) - 1)
                response >>= self.n
        else:
            data = 0
            for i, b in enumerate(response):
                if b:
                    data ^= 1 << (i % self.n)
        fb = (self._state & self._tap_mask).bit_count() & 1
        self._state = (((self._state << 1) | fb) ^ data) & self._mask
        return self._state

    def absorb_stream(self, responses: Iterable[Sequence[int] | int]) -> int:
        """Absorb a sequence of parallel responses; returns the signature."""
        for r in responses:
            self.absorb(r)
        return self._state


def signature_of(responses: Iterable[Sequence[int] | int], n: int) -> int:
    """One-shot signature of a response stream through a fresh n-stage MISR."""
    misr = Misr(n=n)
    return misr.absorb_stream(responses)
