"""Bit-parallel logic simulation.

Built on Python's arbitrary-precision integers, where bit position ``t``
of every line's word carries pattern/lane ``t``, and on one word kernel,
:meth:`repro.core.compiled.CompiledCircuit.eval_words`:

* :func:`simulate_packed_words` -- cycle-accurate functional simulation
  of up to 64 lanes fed with *pre-packed* per-input words (one word per
  input per cycle, bit ``t`` = lane ``t``), every lane starting from one
  shared state, with optional lane-wise state holding.  It is the
  simulation core of every Fig 4.9 seed trial
  (:mod:`repro.core.builtin_gen`: one lane per candidate seed, a
  one-lane run for a width-1 decision) and of the SWA_func estimate
  (:mod:`repro.core.embedded`), consuming
  :meth:`repro.bist.tpg.DevelopedTpg.sequence_batch` output directly.
* :func:`pack_columns_indexed` -- the columnwise pattern packing that
  PPSFP fault simulation (:mod:`repro.faults.fsim`) feeds to the word
  kernel and to
  :meth:`~repro.core.compiled.CompiledCircuit.faulty_cone_words`, its
  single-fault-injection primitive.

The packed trajectory loop does nothing per cycle but evaluate the word
kernel into one reused frame and keep a byte copy of it (each line word
as one 1-, 2-, 4- or 8-byte item, the narrowest that holds the lanes).
Switching activity is counted once, after the loop: consecutive frames
are XORed in chunked numpy passes and each lane's toggles summed over
the counted lines.

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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.circuits.netlist import Circuit
from repro.core.compiled import compile_circuit
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


def pack_columns_indexed(
    values: list[int], vectors: Sequence[Sequence[int]], offset: int
) -> None:
    """Pack per-pattern vectors columnwise into a valuation array slice.

    ``vectors[t][j]`` lands in bit ``t`` of ``values[offset + j]``,
    written straight into a compiled-circuit frame.  The transpose runs
    through one vectorised :func:`numpy.packbits` (a byte string per
    column, decoded with ``int.from_bytes``) rather than a Python loop
    over the full ``patterns x lines`` grid -- frame packing is the fixed
    cost of every PPSFP grading chunk.
    """
    if not vectors:
        return
    arr = np.asarray(vectors, dtype=np.uint8)
    if arr.size == 0:
        return
    packed = np.packbits(arr, axis=0, bitorder="little")
    n_bytes = packed.shape[0]
    data = packed.T.tobytes()
    for j in range(arr.shape[1]):
        word = int.from_bytes(data[j * n_bytes : (j + 1) * n_bytes], "little")
        if word:
            values[offset + j] |= word


@dataclass(frozen=True)
class PackedSequenceResult:
    """Result of a packed multi-lane sequence simulation.

    Attributes
    ----------
    switching_counts:
        Array of shape ``(L, n_lanes)``: number of counted lines that
        toggled in each cycle, per lane.  Row 0 is all zeros (undefined,
        see Section 4.4).
    n_lanes:
        Number of packed sequences.
    state_words:
        ``L+1`` per-cycle state rows; row ``i`` holds one packed word per
        state line (scan order), bit ``t`` = lane ``t`` -- the form the
        packed generation loop slices lanes out of.
    """

    switching_counts: np.ndarray
    n_lanes: int
    state_words: list[tuple[int, ...]]

    def switching_percent(self, n_lines: int) -> np.ndarray:
        """Switching counts converted to the paper's percentage metric."""
        return 100.0 * self.switching_counts / float(n_lines)

    def lane_states(self, lane: int, upto: int) -> list[tuple[int, ...]]:
        """Lane ``lane``'s state vectors for cycles ``0 .. upto``."""
        return [
            tuple((w >> lane) & 1 for w in row)
            for row in self.state_words[: upto + 1]
        ]


def broadcast_state_words(state: Sequence[int], mask: int) -> list[int]:
    """Packed state words with every lane holding the same state vector."""
    return [mask if b else 0 for b in state]


def unpack_lane_bits(rows: Sequence[Sequence[int]], n_lanes: int) -> np.ndarray:
    """Bit-transpose packed word rows into a ``(rows, words, lanes)`` array.

    ``out[i, j, t]`` is bit ``t`` of ``rows[i][j]`` -- lane ``t``'s value
    of word ``j`` at row ``i``, as a uint8 0/1.  One vectorised
    :func:`numpy.unpackbits` replaces per-lane Python bit picking, which
    is what makes slicing individual lanes out of a 64-lane trajectory
    (per-lane test extraction in the packed Fig 4.9 loop) cheap.
    """
    n_rows = len(rows)
    n_words = len(rows[0]) if n_rows else 0
    if n_rows == 0 or n_words == 0:
        return np.zeros((n_rows, n_words, n_lanes), dtype=np.uint8)
    arr = np.array(rows, dtype=np.uint64)
    as_bytes = arr.view(np.uint8).reshape(n_rows, n_words, 8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[:, :, :n_lanes]


#: Upper bound on the numpy temporaries of one switching-count chunk.
_CHUNK_BYTES = 1 << 20


def _frame_packer(n_lanes: int, n_lines: int):
    """``(pack, dtype)`` serialising a valuation frame to fixed-width items.

    Each line word becomes one little-endian unsigned item of the
    narrowest width (1, 2, 4 or 8 bytes) that holds ``n_lanes`` bits:
    ``bytes`` itself up to 8 lanes, a precompiled :class:`struct.Struct`
    above.
    """
    for size, code in ((1, "B"), (2, "H"), (4, "I"), (8, "Q")):
        if 8 * size >= n_lanes:
            break
    if size == 1:
        return bytes, np.dtype(np.uint8)
    packer = struct.Struct(f"<{n_lines}{code}")
    return (lambda frame: packer.pack(*frame)), np.dtype(f"<u{size}")


def _switching_counts(
    frames: bytes,
    dtype: np.dtype,
    shape: tuple[int, int],
    n_lanes: int,
    count_idx: Sequence[int] | None,
) -> np.ndarray:
    """Per-cycle, per-lane toggle counts of the serialised frames.

    ``frames`` holds ``shape = (L, lines)`` items of ``dtype``, one row
    per simulated cycle.  Consecutive rows are XORed and each lane's bit
    of the difference is summed over the counted lines -- one shift, mask
    and sum per lane, in row chunks whose temporaries stay within
    :data:`_CHUNK_BYTES`.
    """
    length = shape[0]
    n_count = shape[1] if count_idx is None else len(count_idx)
    switching = np.zeros((length, n_lanes), dtype=np.int64)
    if length < 2 or n_count == 0:
        return switching
    words = np.frombuffer(frames, dtype=dtype).reshape(shape)
    step = max(1, _CHUNK_BYTES // (n_count * dtype.itemsize))
    for start in range(1, length, step):
        stop = min(start + step, length)
        block = words[start - 1 : stop]
        if count_idx is not None:
            block = block.take(count_idx, axis=1)
        diff = block[1:] ^ block[:-1]
        for t in range(n_lanes):
            switching[start:stop, t] = ((diff >> t) & 1).sum(axis=1)
    return switching


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
    count_idx: Sequence[int] | None,
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
    pack, dtype = _frame_packer(n_lanes, cc.num_lines)
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
    switching = _switching_counts(
        b"".join(frames), dtype, (length, cc.num_lines), n_lanes, count_idx
    )
    if OBS.enabled:
        # One record per packed run: the kernel itself stays untouched.
        OBS.count("bitsim.packed_runs")
        OBS.count("bitsim.cycles", length)
        OBS.count("bitsim.lane_cycles", length * n_lanes)
        OBS.count("bitsim.words_evaluated", length * cc.num_lines)
        OBS.observe("bitsim.lanes_per_run", n_lanes)
        OBS.observe("span.bitsim.packed_run", time.perf_counter() - t_start)
    return PackedSequenceResult(
        switching_counts=switching, n_lanes=n_lanes, state_words=word_rows
    )


def simulate_packed_words(
    circuit: Circuit,
    initial_state: Sequence[int],
    pi_word_rows: Sequence[Sequence[int]],
    n_lanes: int,
    count_lines: Sequence[str] | None = None,
    hold_indices: Sequence[int] | None = None,
    hold_period_log2: int = 2,
    compiled=None,
) -> PackedSequenceResult:
    """Simulate up to 64 lanes that share one initial state, from packed words.

    The form the packed Fig 4.9 seed-trial loop uses: every lane starts
    at the *same* current state, ``pi_word_rows`` comes pre-packed from
    :meth:`repro.bist.tpg.DevelopedTpg.sequence_batch` (bit ``t`` of
    ``pi_word_rows[i][j]`` is input ``j`` at cycle ``i`` in lane ``t``),
    and an optional hold set replays the state-holding DFT of Section 4.5
    lane-wise (identical cycle alignment in every lane).  Every word must
    fit in ``n_lanes`` bits, and a non-empty hold set needs
    ``hold_period_log2 >= 1`` (a hold never falls on a capture cycle);
    anything else raises :class:`ValueError`.
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
    if len(initial_state) != cc.n_state:
        raise ValueError(
            f"initial state has {len(initial_state)} bits, "
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
    count_idx = (
        None if count_lines is None else [cc.index[line] for line in count_lines]
    )
    return _run_packed(
        cc,
        broadcast_state_words(initial_state, mask),
        pi_word_rows,
        n_lanes,
        count_idx,
        hold_indices,
        1 << hold_period_log2,
    )
