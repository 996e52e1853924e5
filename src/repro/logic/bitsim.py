"""Bit-parallel logic simulation.

Three fast paths built on Python's arbitrary-precision integers, where bit
position ``t`` of every line's word carries pattern/lane ``t`` (one word
kernel, :meth:`repro.core.compiled.CompiledCircuit.eval_words`, serves
them all):

* :class:`PatternSimulator` -- evaluates the combinational core for many
  independent patterns at once, with a fanout-cone re-evaluation API used
  by single-fault-injection fault simulation (PPSFP-style,
  :mod:`repro.faults.fsim`).
* :func:`simulate_sequences_packed` -- cycle-accurate functional
  simulation of up to 64 *independent sequences* in parallel (each bit
  lane has its own initial state and its own primary input sequence).
  Per-cycle, per-lane switching activity is extracted with a vectorised
  numpy popcount, which is what makes Chapter 4's SWA estimation over many
  LFSR seeds tractable in pure Python.
* :func:`simulate_packed_words` -- the same multi-lane kernel fed with
  *pre-packed* per-input words (one word per input per cycle, bit ``t`` =
  lane ``t``), every lane starting from one shared state, with optional
  lane-wise state holding.  This is the simulation core of the packed
  Fig 4.9 seed-trial loop (:mod:`repro.core.builtin_gen`), consuming
  :meth:`repro.bist.tpg.DevelopedTpg.sequence_batch` output directly.

All three evaluate through the compiled circuit IR
(:mod:`repro.core.compiled`): one integer-indexed schedule shared with the
scalar simulator, compiled once per netlist version.  The scalar
three-valued simulator (:mod:`repro.logic.simulator`) is the semantic
reference; ``tests/test_bitsim.py`` and ``tests/test_compiled.py``
property-check agreement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.circuits.gates import GateType
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


def pack_vectors(vectors: Sequence[Sequence[int]], names: Sequence[str]) -> dict[str, int]:
    """Pack per-pattern vectors columnwise into per-line words.

    ``vectors[t][j]`` is the value of line ``names[j]`` in pattern ``t``.
    """
    words = dict.fromkeys(names, 0)
    for t, vec in enumerate(vectors):
        bit = 1 << t
        for name, v in zip(names, vec):
            if v:
                words[name] |= bit
    return words


def pack_columns_indexed(
    values: list[int], vectors: Sequence[Sequence[int]], offset: int
) -> None:
    """Pack per-pattern vectors columnwise into a valuation array slice.

    ``vectors[t][j]`` lands in bit ``t`` of ``values[offset + j]`` -- the
    index-space analogue of :func:`pack_vectors`, writing straight into a
    compiled-circuit frame.  The transpose runs through one vectorised
    :func:`numpy.packbits` (a byte string per column, decoded with
    ``int.from_bytes``) rather than a Python loop over the full
    ``patterns x lines`` grid -- frame packing is the fixed cost of every
    PPSFP grading chunk.
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


class PatternSimulator:
    """Bit-parallel combinational simulator with fanout-cone fault injection.

    Compiles the circuit once (through the memoized compile cache) and
    evaluates packed words over the integer-indexed schedule.  The
    ``*_indexed`` methods work directly in line-index space -- the form
    fault simulation uses; the name-keyed methods are thin dict views kept
    for the pre-refactor API.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.compiled = compile_circuit(circuit)

    # -- index-space core ------------------------------------------------
    def run_indexed(self, input_words: Mapping[str, int], n_patterns: int) -> list[int]:
        """Evaluate all lines; returns the packed valuation array.

        ``input_words`` maps primary-input and present-state line names to
        packed words; missing inputs default to all-zero, non-input keys
        are ignored (fault simulation passes whole-frame maps).
        """
        cc = self.compiled
        mask = (1 << n_patterns) - 1
        values = cc.zero_frame()
        index = cc.index
        n_sources = cc.n_sources
        for name, word in input_words.items():
            idx = index.get(name)
            if idx is not None and idx < n_sources:
                values[idx] = word & mask
        cc.eval_words(values, mask)
        return values

    # -- name-keyed views ------------------------------------------------
    def run(self, input_words: Mapping[str, int], n_patterns: int) -> dict[str, int]:
        """Evaluate all lines for ``n_patterns`` packed patterns (dict view)."""
        return self.compiled.as_dict(self.run_indexed(input_words, n_patterns))

    def cone(self, line: str) -> list[tuple[str, GateType, tuple[str, ...]]]:
        """Gates in the transitive fanout of ``line``, topologically ordered."""
        cc = self.compiled
        entries, _ = cc.cone(cc.index[line])
        gates = self.circuit.gates
        out: list[tuple[str, GateType, tuple[str, ...]]] = []
        for out_idx, _, _, _ in entries:
            gate = gates[cc.names[out_idx]]
            out.append((gate.name, gate.gate_type, gate.inputs))
        return out

    def run_faulty_cone(
        self,
        good_values: Mapping[str, int],
        line: str,
        forced_word: int,
        n_patterns: int,
    ) -> dict[str, int]:
        """Re-evaluate the fanout cone of ``line`` with its value forced.

        Returns a sparse map holding values only for ``line`` and the cone
        gates that diverge; lines absent from the map keep their good
        value.  This is the single-fault-injection primitive of PPSFP fault
        simulation (fault grading itself uses the index-space form,
        :meth:`repro.core.compiled.CompiledCircuit.faulty_cone_words`).
        """
        cc = self.compiled
        mask = (1 << n_patterns) - 1
        good = [good_values[name] for name in cc.names]
        faulty = cc.faulty_cone_words(good, cc.index[line], forced_word, mask)
        names = cc.names
        return {names[i]: w for i, w in faulty.items()}


@dataclass(frozen=True)
class PackedSequenceResult:
    """Result of a packed multi-lane sequence simulation.

    Attributes
    ----------
    states:
        ``L+1`` entries; each maps a state line to its packed word.
    switching_counts:
        Array of shape ``(L, n_lanes)``: number of lines that toggled in
        each cycle, per lane.  Row 0 is all zeros (undefined, see
        Section 4.4).
    n_lanes:
        Number of packed sequences.
    final_line_values:
        Line valuation words of the last simulated cycle.
    state_words:
        The raw per-cycle state rows (``L+1`` rows of per-state-line
        packed words, scan order) that :attr:`states` wraps -- the form
        the packed generation loop slices lanes out of.
    """

    states: list[dict[str, int]]
    switching_counts: np.ndarray
    n_lanes: int
    final_line_values: dict[str, int]
    state_words: list[list[int]] = field(default_factory=list)

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


def _run_packed(
    cc,
    state_words: list[int],
    pi_word_rows: Sequence[Sequence[int]],
    n_lanes: int,
    count_idx: Sequence[int] | None,
    hold_indices: Sequence[int] | None,
    hold_period: int,
) -> PackedSequenceResult:
    """Shared packed-lane trajectory kernel.

    ``pi_word_rows[i][j]`` is the packed word of primary input ``j`` at
    cycle ``i`` (bit ``t`` = lane ``t``).  With ``hold_indices``, the named
    state-variable positions skip capture at every cycle ``i`` with
    ``i % hold_period == 0`` -- the packed analogue of
    :func:`repro.core.state_holding.simulate_with_holding`.
    """
    mask = (1 << n_lanes) - 1
    n_inputs = cc.n_inputs
    n_sources = cc.n_sources
    state_lines = cc.circuit.state_lines
    ns_indices = cc.next_state_indices
    n_lines = cc.num_lines if count_idx is None else len(count_idx)
    length = len(pi_word_rows)
    t_start = time.perf_counter() if OBS.enabled else 0.0

    word_rows = [list(state_words)]
    states = [dict(zip(state_lines, state_words))]
    switching = np.zeros((length, n_lanes), dtype=np.int64)
    prev_arr: np.ndarray | None = None
    values: list[int] = cc.zero_frame()
    for cycle in range(length):
        values = cc.zero_frame()
        values[0:n_inputs] = pi_word_rows[cycle]
        values[n_inputs:n_sources] = state_words
        cc.eval_words(values, mask)
        counted = values if count_idx is None else [values[i] for i in count_idx]
        cur_arr = np.fromiter(counted, dtype=np.uint64, count=n_lines)
        if prev_arr is not None:
            diff = prev_arr ^ cur_arr
            bits = np.unpackbits(diff.view(np.uint8), bitorder="little")
            counts = bits.reshape(n_lines, 64).sum(axis=0)
            switching[cycle] = counts[:n_lanes]
        prev_arr = cur_arr
        nxt = [values[i] for i in ns_indices]
        if hold_indices and cycle % hold_period == 0:
            for k in hold_indices:
                nxt[k] = state_words[k]
        state_words = nxt
        word_rows.append(state_words)
        states.append(dict(zip(state_lines, state_words)))
    if OBS.enabled:
        # One record per packed run: the kernel itself stays untouched.
        OBS.count("bitsim.packed_runs")
        OBS.count("bitsim.cycles", length)
        OBS.count("bitsim.lane_cycles", length * n_lanes)
        OBS.count("bitsim.words_evaluated", length * cc.num_lines)
        OBS.observe("bitsim.lanes_per_run", n_lanes)
        OBS.observe("span.bitsim.packed_run", time.perf_counter() - t_start)
    return PackedSequenceResult(
        states=states,
        switching_counts=switching,
        n_lanes=n_lanes,
        final_line_values=cc.as_dict(values),
        state_words=word_rows,
    )


def simulate_sequences_packed(
    circuit: Circuit,
    initial_states: Sequence[Sequence[int]],
    pi_sequences: Sequence[Sequence[Sequence[int]]],
    count_lines: Sequence[str] | None = None,
) -> PackedSequenceResult:
    """Simulate up to 64 independent input sequences in one packed run.

    Parameters
    ----------
    initial_states:
        One state vector per lane.
    pi_sequences:
        One primary-input sequence per lane; all must share the same
        length ``L``.  ``pi_sequences[k][i][j]`` is input ``j`` at cycle
        ``i`` in lane ``k``.
    """
    n_lanes = len(initial_states)
    if n_lanes == 0:
        raise ValueError("no lanes")
    if n_lanes > 64:
        raise ValueError("at most 64 packed lanes (uint64 switching counters)")
    if len(pi_sequences) != n_lanes:
        raise ValueError("one PI sequence required per lane")
    length = len(pi_sequences[0])
    if any(len(seq) != length for seq in pi_sequences):
        raise ValueError("all lanes must have equal sequence length")

    cc = compile_circuit(circuit)
    n_inputs = cc.n_inputs
    # Line order of ``cc.names`` equals ``circuit.lines``, so counting all
    # lines reads the valuation array directly; a subset goes through a
    # precomputed index list.
    count_idx = (
        None if count_lines is None else [cc.index[line] for line in count_lines]
    )
    state_words = [0] * cc.n_state
    pack_columns_indexed(state_words, initial_states, 0)
    pi_word_rows: list[list[int]] = []
    for cycle in range(length):
        row = [0] * n_inputs
        pack_columns_indexed(row, [pi_sequences[k][cycle] for k in range(n_lanes)], 0)
        pi_word_rows.append(row)
    return _run_packed(cc, state_words, pi_word_rows, n_lanes, count_idx, None, 1)


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
    lane-wise (identical cycle alignment in every lane).
    """
    if not 0 < n_lanes <= 64:
        raise ValueError(
            f"simulate_packed_words: n_lanes={n_lanes} is outside the "
            "supported 1..64 range (uint64 switching counters)"
        )
    cc = compiled if compiled is not None else compile_circuit(circuit)
    if len(initial_state) != cc.n_state:
        raise ValueError(
            f"initial state has {len(initial_state)} bits, "
            f"circuit has {cc.n_state} flops"
        )
    for i, row in enumerate(pi_word_rows):
        if len(row) != cc.n_inputs:
            raise ValueError(
                f"simulate_packed_words: pi_word_rows[{i}] has {len(row)} "
                f"input words, circuit {circuit.name!r} has {cc.n_inputs} "
                "primary inputs"
            )
    mask = (1 << n_lanes) - 1
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


def lane_state(states: Sequence[Mapping[str, int]], circuit: Circuit, cycle: int, lane: int) -> tuple[int, ...]:
    """Extract lane ``lane``'s state vector at ``cycle`` from packed states."""
    words = states[cycle]
    return tuple((words[q] >> lane) & 1 for q in circuit.state_lines)
