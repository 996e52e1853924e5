"""Bit-parallel logic simulation.

Built on Python's arbitrary-precision integers, where bit position ``t``
of every line's word carries pattern/lane ``t``, and on one word kernel,
:meth:`repro.core.compiled.CompiledCircuit.eval_words`:

* :func:`simulate_packed_words` -- cycle-accurate functional simulation
  of up to 64 lanes fed with *pre-packed* per-input words (one word per
  input per cycle, bit ``t`` = lane ``t``), each lane starting from its
  own initial state (packed by :func:`pack_lane_states`), with optional
  lane-wise state holding.  It is the simulation core of every Fig 4.9
  seed trial (:mod:`repro.core.builtin_gen`: one lane per candidate seed
  from the current state, plus look-ahead lanes from the initial state
  for the next sequence's first decision) and of the SWA_func estimate
  (:mod:`repro.core.embedded`: the driving block's run, whose output
  words :meth:`PackedSequenceResult.line_words` reads, then the
  target's), consuming :meth:`repro.bist.tpg.DevelopedTpg.sequence_batch`
  output directly.
* :class:`LaneTests` -- one lane's broadside tests of a packed run as a
  sized view.  PPSFP grading (:mod:`repro.faults.fsim`) reads a block of
  views through :func:`lane_test_frames`, which slices both good frames
  of every test straight out of the frames the run serialised; only an
  indexed view builds :class:`~repro.logic.patterns.BroadsideTest`
  objects.
* :func:`pack_columns_indexed` -- the columnwise pattern packing that
  PPSFP grading of explicit test lists feeds to the word kernel and to
  :meth:`~repro.core.compiled.CompiledCircuit.faulty_cone_words`, its
  single-fault-injection primitive.

The packed trajectory loop does nothing per cycle but evaluate the word
kernel into one reused frame and keep a byte copy of it (each line word
as one 1-, 2-, 4- or 8-byte item, the narrowest that holds the lanes).
Switching activity is counted once, after the loop: consecutive frames,
read as integers, XOR to one toggle word per cycle, and a lane's count
is the popcount (``int.bit_count``) of that word masked to the lane's
bit of every counted line.

Everything evaluates through the compiled circuit IR
(:mod:`repro.core.compiled`): one integer-indexed schedule shared with the
scalar simulator, compiled once per netlist version.  The scalar
three-valued simulator (:mod:`repro.logic.simulator`) is the semantic
reference; ``tests/test_bitsim.py`` and ``tests/test_compiled.py``
property-check agreement.
"""

from __future__ import annotations

import operator
import struct
import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.circuits.netlist import Circuit
from repro.core.compiled import compile_circuit
from repro.logic.patterns import BroadsideTest
from repro.obs import OBS


def pack_bits(bits: Sequence[int]) -> int:
    """Pack a 0/1 sequence into an int (element ``t`` -> bit ``t``)."""
    word = 0
    for t, b in enumerate(bits):
        if b:
            word |= 1 << t
    return word


def unpack_bits(word: int, n: int) -> list[int]:
    """Unpack the low ``n`` bits of a word into a 0/1 list."""
    return [(word >> t) & 1 for t in range(n)]


#: Item size in bytes -> ``struct``/``memoryview`` format of a frame item.
_ITEM_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}

#: ``bytes.translate`` table turning 0/1 bytes into the digits ``0``/``1``.
_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")


def pack_columns_indexed(
    values: list[int], vectors: Sequence[Sequence[int]], offset: int
) -> None:
    """Pack per-pattern 0/1 vectors columnwise into a valuation array slice.

    ``vectors[t][j]`` lands in bit ``t`` of ``values[offset + j]``,
    written straight into a compiled-circuit frame.  Each column is
    transposed by C-level builtins rather than a Python loop over the
    ``patterns x lines`` grid: its bytes, last pattern first, spell a
    binary numeral that ``int(..., 2)`` parses.
    """
    for j, column in enumerate(zip(*vectors)):
        word = int(bytes(column[::-1]).translate(_ASCII_BITS), 2)
        if word:
            values[offset + j] |= word


@dataclass(frozen=True)
class PackedSequenceResult:
    """Result of a packed multi-lane sequence simulation over ``L`` cycles.

    Attributes
    ----------
    switching_counts:
        One list of ``L`` per-cycle counts per lane:
        ``switching_counts[t][i]`` is the number of counted lines that
        toggled in cycle ``i`` of lane ``t``.  Entry 0 is 0 (undefined,
        see Section 4.4).
    n_lanes:
        Number of packed sequences.
    state_words:
        ``L+1`` per-cycle state rows; row ``i`` holds one packed word per
        state line (scan order), bit ``t`` = lane ``t``.
    pi_words:
        The ``L`` packed primary-input rows the run applied.
    frames:
        Every cycle's full valuation, serialised: cycle ``i`` is the
        ``i``-th row of one little-endian ``item_size``-byte item per
        line, in line-index order, bit ``t`` of an item = lane ``t`` --
        the form :func:`lane_test_frames` grades tests from.
    item_size:
        Bytes per item: 1, 2, 4 or 8, the narrowest that holds the lanes.
    """

    switching_counts: list[list[int]]
    n_lanes: int
    state_words: list[tuple[int, ...]]
    pi_words: Sequence[Sequence[int]]
    frames: bytes
    item_size: int

    def switching_percent(self, n_lines: int) -> list[list[float]]:
        """Switching counts converted to the paper's percentage metric, per lane."""
        return [[100.0 * c / n_lines for c in lane] for lane in self.switching_counts]

    def lane_states(self, lane: int, upto: int) -> list[tuple[int, ...]]:
        """Lane ``lane``'s state vectors for cycles ``0 .. upto``."""
        return [_lane_bits(row, 1 << lane) for row in self.state_words[: upto + 1]]

    def line_words(self, indices: Sequence[int]) -> list[list[int]]:
        """Per cycle, the packed words of the lines at compiled ``indices``.

        Row ``i`` is read out of cycle ``i``'s serialised frame (its
        little-endian items, as packed): one word per index, bit ``t`` =
        lane ``t``.
        """
        if not self.pi_words:
            return []
        size = self.item_size
        n_lines = len(self.frames) // (size * len(self.pi_words))
        frame = struct.Struct(f"<{n_lines}{_ITEM_FORMATS[size]}")
        return [[items[j] for j in indices] for items in frame.iter_unpack(self.frames)]


def pack_lane_states(states: Sequence[Sequence[int]]) -> list[int]:
    """Packed state words of per-lane state vectors.

    Bit ``t`` of word ``k`` is ``states[t][k]``: lane ``t`` starts from
    ``states[t]``.  Each column is transposed the way
    :func:`pack_columns_indexed` transposes one.
    """
    return [int(bytes(column[::-1]).translate(_ASCII_BITS), 2) for column in zip(*states)]


class LaneTests(Sequence):
    """One lane's broadside tests of a packed run, as a sized view.

    Test ``i`` is ``<s(c), p(c), s(c+1), p(c+1)>`` at cycle
    ``c = i * spacing`` of lane ``lane``, for every ``c + 1 < length`` --
    the tests :func:`repro.logic.simulator.extract_tests_from_sequence`
    takes from the lane's first ``length`` cycles.  ``len()`` is free and
    a :class:`~repro.logic.patterns.BroadsideTest` is built only when
    indexed: grading reads the run's frames (:func:`lane_test_frames`).
    """

    __slots__ = ("run", "lane", "length", "spacing")

    def __init__(self, run: PackedSequenceResult, lane: int, length: int, spacing: int):
        """View lane ``lane`` of ``run``, truncated to ``length`` cycles."""
        self.run = run
        self.lane = lane
        self.length = length
        self.spacing = spacing

    def __len__(self) -> int:
        return len(range(0, self.length - 1, self.spacing))

    def __getitem__(self, i: int) -> BroadsideTest:
        c = range(0, self.length - 1, self.spacing)[i]
        bit = 1 << self.lane
        states, pis = self.run.state_words, self.run.pi_words
        return BroadsideTest(
            s1=_lane_bits(states[c], bit),
            v1=_lane_bits(pis[c], bit),
            s2=_lane_bits(states[c + 1], bit),
            v2=_lane_bits(pis[c + 1], bit),
            source_cycle=c,
        )


def _lane_bits(words: Sequence[int], bit: int) -> tuple[int, ...]:
    """Each word's value (0 or 1) in the lane whose bit is ``bit``."""
    return tuple([1 if w & bit else 0 for w in words])


def lane_test_frames(
    views: Sequence[LaneTests],
) -> tuple[list[int], list[int], int, list[int]]:
    """``(good1, good2, mask, lane_masks)``: the views' good frames, one run's slices.

    Test ``i`` of the view of lane ``k`` takes bit ``i * w + k`` of every
    word, ``w`` being the run's item width in bits, so each line's word
    is one strided slice of the serialised frames: its items at cycles
    ``i * spacing`` (``good1``, the launch frame) or ``i * spacing + 1``
    (``good2``, the capture frame).  ``mask`` holds exactly the views'
    test bits -- the other lanes, and each lane's cycles past its own
    length, are masked off -- and ``lane_masks[j]`` those of ``views[j]``.
    The views must share one run of at least one cycle and one spacing.
    """
    run = views[0].run
    spacing = views[0].spacing
    if any(v.run is not run or v.spacing != spacing for v in views):
        raise ValueError("lane_test_frames: views must share one packed run and spacing")
    size = run.item_size
    width = 8 * size
    # Bit 0 of each of n test slots is (2**(n*w) - 1) // (2**w - 1).
    ones = (1 << width) - 1
    lane_masks = [(((1 << len(v) * width) - 1) // ones) << v.lane for v in views]
    mask = 0
    for lane_mask in lane_masks:
        mask |= lane_mask
    n_lines = len(run.frames) // (size * len(run.pi_words))
    # Bytes slice item-wise directly; wider items need a memoryview of them.
    items = run.frames if size == 1 else memoryview(run.frames).cast(_ITEM_FORMATS[size])
    stride = n_lines * spacing
    stop = max(map(len, views)) * stride
    good1, good2 = (
        [
            int.from_bytes(items[g : g + stop : stride], "little") & mask
            for g in range(first, first + n_lines)
        ]
        for first in (0, n_lines)
    )
    return good1, good2, mask, lane_masks


def _frame_packer(n_lanes: int, n_lines: int):
    """``(pack, size)`` serialising a valuation frame to ``size``-byte items.

    Each line word becomes one little-endian unsigned item of the
    narrowest width (1, 2, 4 or 8 bytes) that holds ``n_lanes`` bits:
    ``bytes`` itself up to 8 lanes, a precompiled :class:`struct.Struct`
    above.
    """
    size = next(size for size in _ITEM_FORMATS if 8 * size >= n_lanes)
    if size == 1:
        return bytes, size
    packer = struct.Struct(f"<{n_lines}{_ITEM_FORMATS[size]}")
    return (lambda frame: packer.pack(*frame)), size


def _switching_counts(
    frames: Sequence[bytes], n_lines: int, size: int, n_lanes: int
) -> list[list[int]]:
    """Per-lane, per-cycle toggle counts of serialised frames.

    ``frames[i]`` is cycle ``i``'s frame of ``n_lines`` little-endian
    ``size``-byte items.  Read as integers, consecutive frames XOR to one
    toggle word per cycle (cycle 0, with no predecessor, toggles
    nothing); lane ``t``'s count is the popcount of that word masked to
    bit ``t`` of every line's item.
    """
    rows = [int.from_bytes(f, "little") for f in frames]
    toggles = [0] + [a ^ b for a, b in zip(rows, rows[1:])] if rows else []
    lane0 = int.from_bytes(bytes([1] + [0] * (size - 1)) * n_lines, "little")
    return [
        [(d & lane).bit_count() for d in toggles]
        for lane in (lane0 << t for t in range(n_lanes))
    ]


def _picker(indices: Sequence[int]):
    """``frame -> tuple(frame[i] for i in indices)`` for any number of indices.

    :func:`operator.itemgetter` picks in C, but returns a bare item for one
    index and cannot be built from none, so those fall back to Python.
    """
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    return lambda frame: tuple(frame[i] for i in indices)


def _run_packed(
    cc,
    state_words: Sequence[int],
    pi_word_rows: Sequence[Sequence[int]],
    n_lanes: int,
    hold_indices: Sequence[int] | None,
    hold_period: int,
) -> PackedSequenceResult:
    """The packed-lane trajectory kernel of :func:`simulate_packed_words`.

    ``pi_word_rows[i][j]`` is the packed word of primary input ``j`` at
    cycle ``i`` (bit ``t`` = lane ``t``).  With ``hold_indices``, the named
    state-variable positions skip capture at every cycle ``i`` with
    ``i % hold_period == 0`` -- the packed analogue of the holding
    :func:`repro.logic.simulator.simulate_sequence`.

    The cycle loop only evaluates the word kernel into one reused frame
    and keeps a serialised copy of it; switching is counted once, after
    the loop, over all cycles (:func:`_switching_counts`).
    """
    mask = (1 << n_lanes) - 1
    n_inputs = cc.n_inputs
    n_sources = cc.n_sources
    next_state = _picker(cc.next_state_indices)
    pack, size = _frame_packer(n_lanes, cc.num_lines)
    t_start = time.perf_counter() if OBS.enabled else 0.0

    state_words = tuple(state_words)
    word_rows = [state_words]
    frames: list[bytes] = []
    frame = cc.zero_frame()
    for cycle, pi_words in enumerate(pi_word_rows):
        frame[:n_inputs] = pi_words
        frame[n_inputs:n_sources] = state_words
        cc.eval_words(frame, mask)
        frames.append(pack(frame))
        nxt = next_state(frame)
        if hold_indices and cycle % hold_period == 0:
            held = list(nxt)
            for k in hold_indices:
                held[k] = state_words[k]
            nxt = tuple(held)
        state_words = nxt
        word_rows.append(state_words)
    length = len(frames)
    switching = _switching_counts(frames, cc.num_lines, size, n_lanes)
    if OBS.enabled:
        # One record per packed run: the kernel itself stays untouched.
        OBS.count("bitsim.packed_runs")
        OBS.count("bitsim.cycles", length)
        OBS.count("bitsim.lane_cycles", length * n_lanes)
        OBS.count("bitsim.words_evaluated", length * cc.num_lines)
        OBS.observe("bitsim.lanes_per_run", n_lanes)
        OBS.observe("span.bitsim.packed_run", time.perf_counter() - t_start)
    return PackedSequenceResult(
        switching_counts=switching,
        n_lanes=n_lanes,
        state_words=word_rows,
        pi_words=pi_word_rows,
        frames=b"".join(frames),
        item_size=size,
    )


def simulate_packed_words(
    circuit: Circuit,
    initial_states: Sequence[Sequence[int]],
    pi_word_rows: Sequence[Sequence[int]],
    n_lanes: int,
    hold_indices: Sequence[int] | None = None,
    hold_period_log2: int = 2,
    compiled=None,
) -> PackedSequenceResult:
    """Simulate up to 64 lanes, each from its own initial state, from packed words.

    Lane ``t`` starts at ``initial_states[t]`` (one state vector per
    lane), ``pi_word_rows`` comes pre-packed from
    :meth:`repro.bist.tpg.DevelopedTpg.sequence_batch` (bit ``t`` of
    ``pi_word_rows[i][j]`` is input ``j`` at cycle ``i`` in lane ``t``),
    and an optional hold set replays the state-holding DFT of Section 4.5
    lane-wise (identical cycle alignment in every lane).  Lanes never
    interact, so a lane's trajectory is the one it would have alone:
    the packed Fig 4.9 loop runs the seeds of one decision from the
    current state beside look-ahead seeds from the initial state.  Every
    word must fit in ``n_lanes`` bits, there must be one state per lane,
    and a non-empty hold set needs ``hold_period_log2 >= 1`` (a hold
    never falls on a capture cycle); anything else raises
    :class:`ValueError`.
    """
    if not 0 < n_lanes <= 64:
        raise ValueError(
            f"simulate_packed_words: n_lanes={n_lanes} is outside the "
            "supported 1..64 range (one 64-bit word per line)"
        )
    if hold_indices and hold_period_log2 < 1:
        raise ValueError(
            "simulate_packed_words: hold_period_log2 must be >= 1 so capture "
            f"transitions are never held, got {hold_period_log2}"
        )
    cc = compiled if compiled is not None else compile_circuit(circuit)
    if len(initial_states) != n_lanes:
        raise ValueError(
            f"simulate_packed_words: {len(initial_states)} initial states "
            f"for n_lanes={n_lanes} lanes"
        )
    for t, state in enumerate(initial_states):
        if len(state) != cc.n_state:
            raise ValueError(
                f"initial state of lane {t} has {len(state)} bits, "
                f"circuit has {cc.n_state} flops"
            )
    mask = (1 << n_lanes) - 1
    for i, row in enumerate(pi_word_rows):
        if len(row) != cc.n_inputs:
            raise ValueError(
                f"simulate_packed_words: pi_word_rows[{i}] has {len(row)} "
                f"input words, circuit {circuit.name!r} has {cc.n_inputs} "
                "primary inputs"
            )
        if row and (min(row) < 0 or max(row) > mask):
            j = next(j for j, word in enumerate(row) if not 0 <= word <= mask)
            raise ValueError(
                f"simulate_packed_words: pi_word_rows[{i}][{j}] = {row[j]:#x} "
                f"does not fit in n_lanes={n_lanes} bits"
            )
    return _run_packed(
        cc,
        pack_lane_states(initial_states),
        pi_word_rows,
        n_lanes,
        hold_indices,
        1 << hold_period_log2,
    )
