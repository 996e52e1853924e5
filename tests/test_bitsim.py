"""Property tests: the bit-parallel simulator against the scalar reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.benchmarks import get_circuit
from repro.circuits.generator import GeneratorSpec, generate
from repro.core.state_holding import hold_indices
from repro.logic import bitsim
from repro.logic.bitsim import (
    PatternSimulator,
    broadcast_state_words,
    pack_bits,
    pack_vectors,
    simulate_packed_words,
    unpack_bits,
    unpack_lane_bits,
)
from repro.logic.simulator import simulate_comb, simulate_sequence


@given(st.lists(st.integers(0, 1), max_size=70))
def test_pack_unpack_round_trip(bits):
    assert unpack_bits(pack_bits(bits), len(bits)) == bits


def test_pack_vectors_columnwise():
    words = pack_vectors([[1, 0], [0, 1], [1, 1]], ["a", "b"])
    assert words["a"] == 0b101
    assert words["b"] == 0b110


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pattern_simulator_matches_scalar(data):
    c = get_circuit("s298")
    n = data.draw(st.integers(1, 8))
    vectors = [
        [data.draw(st.integers(0, 1)) for _ in c.comb_input_lines] for _ in range(n)
    ]
    words = pack_vectors(vectors, c.comb_input_lines)
    packed = PatternSimulator(c).run(words, n)
    for t, vec in enumerate(vectors):
        scalar = simulate_comb(c, dict(zip(c.comb_input_lines, vec)))
        for line in c.lines:
            assert (packed[line] >> t) & 1 == scalar[line], line


class TestFaultyCone:
    def test_forced_line_matches_full_resim(self):
        """Cone re-evaluation == forcing the line and re-simulating everything."""
        c = get_circuit("s298")
        rng = random.Random(0)
        n = 16
        vectors = [
            [rng.randint(0, 1) for _ in c.comb_input_lines] for _ in range(n)
        ]
        words = pack_vectors(vectors, c.comb_input_lines)
        sim = PatternSimulator(c)
        good = sim.run(words, n)
        mask = (1 << n) - 1
        for line in rng.sample(c.lines, 15):
            forced = mask  # stuck-at-1 everywhere
            faulty = sim.run_faulty_cone(good, line, forced, n)
            # Reference: replay each pattern scalar-style with the line forced.
            for t, vec in enumerate(vectors):
                ref = _forced_scalar(c, dict(zip(c.comb_input_lines, vec)), line, 1)
                for obs in c.observation_lines:
                    expect = ref[obs]
                    got = (faulty.get(obs, good[obs]) >> t) & 1
                    assert got == expect, (line, obs)

    def test_cone_is_sparse(self):
        c = get_circuit("s298")
        sim = PatternSimulator(c)
        n = 4
        words = pack_vectors(
            [[0] * len(c.comb_input_lines)] * n, c.comb_input_lines
        )
        good = sim.run(words, n)
        line = c.lines[0]
        faulty = sim.run_faulty_cone(good, line, 0, n)
        assert set(faulty) <= {line} | c.transitive_fanout(line)


def _forced_scalar(circuit, inputs, line, value):
    from repro.circuits.gates import evaluate

    values = {l: inputs.get(l, 0) for l in circuit.comb_input_lines}
    if line in values:
        values[line] = value
    for gate in circuit.topo_gates:
        values[gate.name] = evaluate(
            gate.gate_type, [values[i] for i in gate.inputs]
        )
        if gate.name == line:
            values[gate.name] = value
    return values


class TestWordHelpers:
    def test_broadcast_state_words(self):
        words = broadcast_state_words([1, 0, 1, 1], 0b111)
        assert words == [0b111, 0, 0b111, 0b111]

    def test_unpack_lane_bits_round_trip(self):
        rng = random.Random(5)
        lanes = 7
        rows = [
            [rng.getrandbits(lanes) for _ in range(4)] for _ in range(9)
        ]
        bits = unpack_lane_bits(rows, lanes)
        assert bits.shape == (9, 4, lanes)
        for i, row in enumerate(rows):
            for j, word in enumerate(row):
                for t in range(lanes):
                    assert bits[i, j, t] == (word >> t) & 1

    def test_unpack_lane_bits_empty(self):
        assert unpack_lane_bits([], 4).shape == (0, 0, 4)


class TestPackedWords:
    def test_matches_scalar_per_lane(self):
        """simulate_packed_words from one shared state == per-lane scalar."""
        c = get_circuit("s298")
        rng = random.Random(3)
        lanes, length = 6, 10
        init = [rng.randint(0, 1) for _ in c.flops]
        seqs = [
            [[rng.randint(0, 1) for _ in c.inputs] for _ in range(length)]
            for _ in range(lanes)
        ]
        pi_rows = [
            [
                sum(seqs[t][cyc][j] << t for t in range(lanes))
                for j in range(len(c.inputs))
            ]
            for cyc in range(length)
        ]
        packed = simulate_packed_words(c, init, pi_rows, lanes)
        pct = packed.switching_percent(c.num_lines)
        for t in range(lanes):
            scalar = simulate_sequence(c, init, seqs[t])
            assert packed.lane_states(t, length) == [
                tuple(s) for s in scalar.states
            ]
            for cyc in range(1, length):
                assert pct[cyc, t] == pytest.approx(scalar.switching[cyc])

    def test_hold_matches_scalar_holding(self):
        """Packed hold-indices semantics == the scalar holding simulation."""
        c = get_circuit("s298")
        rng = random.Random(8)
        length = 12
        hold_set = tuple(c.state_lines[:3])
        init = [0] * len(c.flops)
        seq = [[rng.randint(0, 1) for _ in c.inputs] for _ in range(length)]
        pi_rows = [[bit for bit in vec] for vec in seq]  # 1 lane: words == bits
        packed = simulate_packed_words(
            c, init, pi_rows, 1,
            hold_indices=hold_indices(c, hold_set),
            hold_period_log2=2,
        )
        scalar = simulate_sequence(
            c, init, seq, hold_indices=hold_indices(c, hold_set), hold_period_log2=2
        )
        assert packed.lane_states(0, length) == [
            tuple(s) for s in scalar.states
        ]


    @pytest.mark.parametrize("n_flops", [0, 1, 4])
    def test_zero_and_one_flop_circuits(self, n_flops):
        """Next-state picking holds at the degenerate state widths (and at 4)."""
        spec = GeneratorSpec(
            name=f"bitsim-flops{n_flops}", n_inputs=3, n_outputs=2, n_flops=n_flops, n_gates=20
        )
        c = generate(spec)
        rng = random.Random(n_flops)
        lanes, length = 3, 8
        seqs = _random_lanes(c, lanes, length, rng)
        packed = simulate_packed_words(c, [0] * n_flops, _pack_lanes(seqs), lanes)
        for t, seq in enumerate(seqs):
            scalar = simulate_sequence(c, [0] * n_flops, seq)
            assert packed.lane_states(t, length) == [tuple(s) for s in scalar.states]
            assert packed.switching_counts[:, t].tolist() == _toggles(
                scalar.line_values, c.lines
            )


class TestPackedWordsValidation:
    """simulate_packed_words rejects malformed inputs with named sizes."""

    def test_lane_count_out_of_range(self):
        c = get_circuit("s27")
        with pytest.raises(ValueError, match="n_lanes=65 is outside"):
            simulate_packed_words(c, [0] * len(c.flops), [], 65)
        with pytest.raises(ValueError, match="n_lanes=0 is outside"):
            simulate_packed_words(c, [0] * len(c.flops), [], 0)

    def test_row_width_mismatch_names_row_and_circuit(self):
        c = get_circuit("s27")
        good_row = [0] * len(c.inputs)
        bad_row = [0] * (len(c.inputs) + 1)
        with pytest.raises(ValueError) as exc:
            simulate_packed_words(c, [0] * len(c.flops), [good_row, bad_row], 2)
        msg = str(exc.value)
        assert "pi_word_rows[1]" in msg
        assert f"{len(c.inputs) + 1} input words" in msg
        assert "s27" in msg

    def test_word_wider_than_lanes_names_row(self):
        c = get_circuit("s27")
        rows = [[0] * len(c.inputs), [0b100] + [0] * (len(c.inputs) - 1)]
        msg = r"pi_word_rows\[1\]\[0\] = 0x4 does not fit in n_lanes=2 bits"
        with pytest.raises(ValueError, match=msg):
            simulate_packed_words(c, [0] * len(c.flops), rows, 2)

    def test_negative_word_rejected(self):
        c = get_circuit("s27")
        rows = [[0] * (len(c.inputs) - 1) + [-1]]
        with pytest.raises(ValueError, match=r"pi_word_rows\[0\]\[3\]"):
            simulate_packed_words(c, [0] * len(c.flops), rows, 8)

    def test_hold_period_zero_rejected_with_a_hold_set(self):
        c = get_circuit("s27")
        rows = [[0] * len(c.inputs)] * 4
        with pytest.raises(ValueError, match="hold_period_log2 must be >= 1"):
            simulate_packed_words(
                c, [0] * len(c.flops), rows, 1, hold_indices=[0], hold_period_log2=0
            )
        # Without a hold set there is nothing to misalign.
        simulate_packed_words(
            c, [0] * len(c.flops), rows, 1, hold_indices=[], hold_period_log2=0
        )


#: Lane counts straddling every item-size boundary of the serialised frames
#: (1-, 2-, 4- and 8-byte words).
LANE_WIDTHS = (1, 8, 9, 16, 17, 32, 33, 64)


def _pack_lanes(seqs):
    """Lane-packed PI rows: bit ``t`` of ``rows[i][j]`` is ``seqs[t][i][j]``."""
    return [
        [sum(seq[i][j] << t for t, seq in enumerate(seqs)) for j in range(len(seqs[0][i]))]
        for i in range(len(seqs[0]))
    ]


def _toggles(line_values, lines):
    """Exact per-cycle toggle counts over ``lines`` (cycle 0 counts 0)."""
    return [0] + [
        sum(1 for line in lines if cur[line] != prev[line])
        for prev, cur in zip(line_values, line_values[1:])
    ]


def _random_lanes(c, lanes, length, rng):
    return [
        [[rng.randint(0, 1) for _ in c.inputs] for _ in range(length)]
        for _ in range(lanes)
    ]


class TestEveryLaneWidth:
    """simulate_packed_words == per-lane scalar simulation at every width."""

    @pytest.mark.parametrize("lanes", LANE_WIDTHS)
    def test_counts_and_states_match_scalar(self, lanes):
        c = get_circuit("s298")
        rng = random.Random(lanes)
        length = 14
        init = [rng.randint(0, 1) for _ in c.flops]
        seqs = _random_lanes(c, lanes, length, rng)
        packed = simulate_packed_words(c, init, _pack_lanes(seqs), lanes)
        assert packed.switching_counts.shape == (length, lanes)
        for t, seq in enumerate(seqs):
            scalar = simulate_sequence(c, init, seq)
            assert packed.lane_states(t, length) == [tuple(s) for s in scalar.states]
            assert packed.switching_counts[:, t].tolist() == _toggles(
                scalar.line_values, c.lines
            )

    @pytest.mark.parametrize("lanes", LANE_WIDTHS)
    def test_count_lines_subset_matches_scalar(self, lanes):
        c = get_circuit("s298")
        rng = random.Random(100 + lanes)
        length = 10
        subset = rng.sample(c.lines, len(c.lines) // 3)
        init = [rng.randint(0, 1) for _ in c.flops]
        seqs = _random_lanes(c, lanes, length, rng)
        packed = simulate_packed_words(
            c, init, _pack_lanes(seqs), lanes, count_lines=subset
        )
        for t, seq in enumerate(seqs):
            scalar = simulate_sequence(c, init, seq)
            assert packed.switching_counts[:, t].tolist() == _toggles(
                scalar.line_values, subset
            )

    @pytest.mark.parametrize("lanes", LANE_WIDTHS)
    def test_hold_matches_scalar_holding(self, lanes):
        c = get_circuit("s298")
        rng = random.Random(200 + lanes)
        length = 12
        hold_set = tuple(c.state_lines[::3])
        init = [rng.randint(0, 1) for _ in c.flops]
        seqs = _random_lanes(c, lanes, length, rng)
        packed = simulate_packed_words(
            c,
            init,
            _pack_lanes(seqs),
            lanes,
            hold_indices=hold_indices(c, hold_set),
            hold_period_log2=1,
        )
        pct = packed.switching_percent(c.num_lines)
        for t, seq in enumerate(seqs):
            scalar = simulate_sequence(
                c, init, seq, hold_indices=hold_indices(c, hold_set), hold_period_log2=1
            )
            assert packed.lane_states(t, length) == [tuple(s) for s in scalar.states]
            # Exact: the generator stores these percentages in its results.
            assert pct[1:, t].tolist() == scalar.switching[1:]

    def test_sequence_spanning_several_chunks(self):
        """Counts stay exact across the row chunks of the counting pass."""
        c = get_circuit("s298")
        lanes = 64
        rows_per_chunk = bitsim._CHUNK_BYTES // (c.num_lines * 8)
        length = rows_per_chunk + 40
        rng = random.Random(11)
        subset = rng.sample(c.lines, 50)
        init = [0] * len(c.flops)
        seqs = _random_lanes(c, lanes, length, rng)
        rows = _pack_lanes(seqs)
        full = simulate_packed_words(c, init, rows, lanes)
        sub = simulate_packed_words(c, init, rows, lanes, count_lines=subset)
        for t in (0, 37, 63):
            scalar = simulate_sequence(c, init, seqs[t])
            assert full.lane_states(t, length) == [tuple(s) for s in scalar.states]
            assert full.switching_counts[:, t].tolist() == _toggles(
                scalar.line_values, c.lines
            )
            assert sub.switching_counts[:, t].tolist() == _toggles(
                scalar.line_values, subset
            )
