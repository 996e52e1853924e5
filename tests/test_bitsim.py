"""Property tests: the bit-parallel simulator against the scalar reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.benchmarks import get_circuit
from repro.circuits.generator import GeneratorSpec, generate
from repro.core.compiled import compile_circuit
from repro.core.state_holding import hold_indices
from repro.logic.bitsim import (
    pack_bits,
    pack_columns_indexed,
    pack_lane_states,
    simulate_packed_words,
    unpack_bits,
)
from repro.logic.simulator import simulate_comb, simulate_sequence


@given(st.lists(st.integers(0, 1), max_size=70))
def test_pack_unpack_round_trip(bits):
    assert unpack_bits(pack_bits(bits), len(bits)) == bits


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pattern_simulator_matches_scalar(data):
    c = get_circuit("s298")
    n = data.draw(st.integers(1, 8))
    vectors = [
        [data.draw(st.integers(0, 1)) for _ in c.comb_input_lines] for _ in range(n)
    ]
    cc = compile_circuit(c)
    packed = cc.as_dict(_eval_words(cc, vectors))
    for t, vec in enumerate(vectors):
        scalar = simulate_comb(c, dict(zip(c.comb_input_lines, vec)))
        for line in c.lines:
            assert (packed[line] >> t) & 1 == scalar[line], line


def _eval_words(cc, vectors):
    """The word frame of ``vectors`` (one per pattern, in source-line order)."""
    values = cc.zero_frame()
    pack_columns_indexed(values, vectors, 0)
    return cc.eval_words(values, (1 << len(vectors)) - 1)


class TestFaultyCone:
    def test_forced_line_matches_full_resim(self):
        """Cone re-evaluation == forcing the line and re-simulating everything.

        Both stuck values, and every line: a line the returned map leaves
        out must keep its good value under the forced re-simulation.
        """
        c = get_circuit("s298")
        rng = random.Random(0)
        n = 16
        vectors = [
            [rng.randint(0, 1) for _ in c.comb_input_lines] for _ in range(n)
        ]
        cc = compile_circuit(c)
        good = _eval_words(cc, vectors)
        mask = (1 << n) - 1
        for line in rng.sample(c.lines, 15):
            for value in (0, 1):
                forced = mask if value else 0
                faulty = cc.faulty_cone_words(good, cc.index[line], forced, mask)
                # Reference: replay each pattern scalar-style with the line forced.
                for t, vec in enumerate(vectors):
                    inputs = dict(zip(c.comb_input_lines, vec))
                    ref = _forced_scalar(c, inputs, line, value)
                    for name in c.lines:
                        i = cc.index[name]
                        got = (faulty.get(i, good[i]) >> t) & 1
                        assert got == ref[name], (line, value, name)

    def test_cone_is_sparse(self):
        c = get_circuit("s298")
        cc = compile_circuit(c)
        n = 4
        good = _eval_words(cc, [[0] * len(c.comb_input_lines)] * n)
        line = c.lines[0]
        faulty = cc.faulty_cone_words(good, cc.index[line], 0, (1 << n) - 1)
        assert {cc.names[i] for i in faulty} <= {line} | c.transitive_fanout(line)


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
    def test_pack_lane_states(self):
        # Word k holds every lane's bit k: lane t in bit t.
        words = pack_lane_states([[1, 0, 1, 1], [1, 1, 0, 1], [1, 0, 0, 0]])
        assert words == [0b111, 0b010, 0b001, 0b011]
        assert pack_lane_states([[1, 0, 1, 1]] * 3) == [0b111, 0, 0b111, 0b111]
        assert pack_lane_states([[], []]) == []

    @given(st.data())
    def test_pack_lane_states_round_trip(self, data):
        lanes = data.draw(st.integers(1, 64))
        width = data.draw(st.integers(0, 20))
        states = [data.draw(st.lists(st.integers(0, 1), min_size=width, max_size=width))
                  for _ in range(lanes)]
        words = pack_lane_states(states)
        assert len(words) == width
        for t, state in enumerate(states):
            assert [(w >> t) & 1 for w in words] == state


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
        packed = simulate_packed_words(c, [init] * lanes, pi_rows, lanes)
        pct = packed.switching_percent(c.num_lines)
        for t in range(lanes):
            scalar = simulate_sequence(c, init, seqs[t])
            assert packed.lane_states(t, length) == [
                tuple(s) for s in scalar.states
            ]
            for cyc in range(1, length):
                assert pct[t][cyc] == pytest.approx(scalar.switching[cyc])

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
            c, [init], pi_rows, 1,
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
        packed = simulate_packed_words(c, [[0] * n_flops] * lanes, _pack_lanes(seqs), lanes)
        for t, seq in enumerate(seqs):
            scalar = simulate_sequence(c, [0] * n_flops, seq)
            assert packed.lane_states(t, length) == [tuple(s) for s in scalar.states]
            assert packed.switching_counts[t] == _toggles(scalar.line_values, c.lines)


class TestPackedWordsValidation:
    """simulate_packed_words rejects malformed inputs with named sizes."""

    def test_lane_count_out_of_range(self):
        c = get_circuit("s27")
        with pytest.raises(ValueError, match="n_lanes=65 is outside"):
            simulate_packed_words(c, [[0] * len(c.flops)] * 65, [], 65)
        with pytest.raises(ValueError, match="n_lanes=0 is outside"):
            simulate_packed_words(c, [], [], 0)

    def test_one_initial_state_per_lane(self):
        c = get_circuit("s27")
        rows = [[0] * len(c.inputs)]
        with pytest.raises(ValueError, match="1 initial states for n_lanes=2 lanes"):
            simulate_packed_words(c, [[0] * len(c.flops)], rows, 2)
        with pytest.raises(ValueError, match="initial state of lane 1 has 2 bits, circuit has 3"):
            simulate_packed_words(c, [[0, 0, 0], [0, 0]], rows, 2)

    def test_row_width_mismatch_names_row_and_circuit(self):
        c = get_circuit("s27")
        good_row = [0] * len(c.inputs)
        bad_row = [0] * (len(c.inputs) + 1)
        with pytest.raises(ValueError) as exc:
            simulate_packed_words(c, [[0] * len(c.flops)] * 2, [good_row, bad_row], 2)
        msg = str(exc.value)
        assert "pi_word_rows[1]" in msg
        assert f"{len(c.inputs) + 1} input words" in msg
        assert "s27" in msg

    def test_word_wider_than_lanes_names_row(self):
        c = get_circuit("s27")
        rows = [[0] * len(c.inputs), [0b100] + [0] * (len(c.inputs) - 1)]
        msg = r"pi_word_rows\[1\]\[0\] = 0x4 does not fit in n_lanes=2 bits"
        with pytest.raises(ValueError, match=msg):
            simulate_packed_words(c, [[0] * len(c.flops)] * 2, rows, 2)

    def test_negative_word_rejected(self):
        c = get_circuit("s27")
        rows = [[0] * (len(c.inputs) - 1) + [-1]]
        with pytest.raises(ValueError, match=r"pi_word_rows\[0\]\[3\]"):
            simulate_packed_words(c, [[0] * len(c.flops)] * 8, rows, 8)

    def test_hold_period_zero_rejected_with_a_hold_set(self):
        c = get_circuit("s27")
        rows = [[0] * len(c.inputs)] * 4
        with pytest.raises(ValueError, match="hold_period_log2 must be >= 1"):
            simulate_packed_words(
                c, [[0] * len(c.flops)], rows, 1, hold_indices=[0], hold_period_log2=0
            )
        # Without a hold set there is nothing to misalign.
        simulate_packed_words(
            c, [[0] * len(c.flops)], rows, 1, hold_indices=[], hold_period_log2=0
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
        packed = simulate_packed_words(c, [init] * lanes, _pack_lanes(seqs), lanes)
        assert [len(counts) for counts in packed.switching_counts] == [length] * lanes
        for t, seq in enumerate(seqs):
            scalar = simulate_sequence(c, init, seq)
            assert packed.lane_states(t, length) == [tuple(s) for s in scalar.states]
            assert packed.switching_counts[t] == _toggles(scalar.line_values, c.lines)

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
            [init] * lanes,
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
            assert pct[t][1:] == scalar.switching[1:]

    def test_sequence_spanning_several_chunks(self):
        """Counts stay exact over a long, full-width run (1,003 cycles, 64 lanes)."""
        c = get_circuit("s298")
        lanes = 64
        length = 1003
        rng = random.Random(11)
        init = [0] * len(c.flops)
        seqs = _random_lanes(c, lanes, length, rng)
        full = simulate_packed_words(c, [init] * lanes, _pack_lanes(seqs), lanes)
        for t in (0, 37, 63):
            scalar = simulate_sequence(c, init, seqs[t])
            assert full.lane_states(t, length) == [tuple(s) for s in scalar.states]
            assert full.switching_counts[t] == _toggles(scalar.line_values, c.lines)


class TestPerLaneInitialStates:
    """Lanes with distinct initial states each follow their own trajectory."""

    @pytest.mark.parametrize("lanes", LANE_WIDTHS)
    @pytest.mark.parametrize("hold", [False, True], ids=["plain", "hold"])
    def test_matches_scalar_per_lane(self, lanes, hold):
        c = get_circuit("s298")
        rng = random.Random(300 + lanes)
        length = 12
        inits = [[rng.randint(0, 1) for _ in c.flops] for _ in range(lanes)]
        seqs = _random_lanes(c, lanes, length, rng)
        holding = (
            {"hold_indices": hold_indices(c, c.state_lines[::3]), "hold_period_log2": 1}
            if hold
            else {}
        )
        packed = simulate_packed_words(c, inits, _pack_lanes(seqs), lanes, **holding)
        pct = packed.switching_percent(c.num_lines)
        for t, (init, seq) in enumerate(zip(inits, seqs)):
            scalar = simulate_sequence(c, init, seq, **holding)
            assert packed.lane_states(t, length) == [tuple(s) for s in scalar.states]
            assert packed.switching_counts[t] == _toggles(scalar.line_values, c.lines)
            assert pct[t][1:] == scalar.switching[1:]

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_generated_circuits(self, data):
        """Distinct initial states on hypothesis-drawn circuits, 0..6 flops."""
        n_flops = data.draw(st.integers(0, 6))
        spec = GeneratorSpec(
            name=f"bitsim-lanes{n_flops}", n_inputs=3, n_outputs=2, n_flops=n_flops, n_gates=24
        )
        c = generate(spec)
        lanes = data.draw(st.integers(1, 12))
        length = data.draw(st.integers(1, 8))
        bit = st.integers(0, 1)
        inits = [[data.draw(bit) for _ in range(n_flops)] for _ in range(lanes)]
        seqs = [[[data.draw(bit) for _ in c.inputs] for _ in range(length)] for _ in range(lanes)]
        packed = simulate_packed_words(c, inits, _pack_lanes(seqs), lanes)
        for t, (init, seq) in enumerate(zip(inits, seqs)):
            scalar = simulate_sequence(c, init, seq)
            assert packed.lane_states(t, length) == [tuple(s) for s in scalar.states]
            assert packed.switching_counts[t] == _toggles(scalar.line_values, c.lines)

    @pytest.mark.parametrize("lanes", [1, 9, 17, 33])
    def test_line_words_read_the_frames(self, lanes):
        """``line_words`` gives each cycle's line values, lane by lane, at every item width."""
        c = get_circuit("s298")
        rng = random.Random(400 + lanes)
        length = 6
        inits = [[rng.randint(0, 1) for _ in c.flops] for _ in range(lanes)]
        seqs = _random_lanes(c, lanes, length, rng)
        packed = simulate_packed_words(c, inits, _pack_lanes(seqs), lanes)
        cc = compile_circuit(c)
        lines = c.outputs + c.lines[:5]
        words = packed.line_words([cc.index[line] for line in lines])
        assert len(words) == length
        for t, (init, seq) in enumerate(zip(inits, seqs)):
            scalar = simulate_sequence(c, init, seq)
            for cycle, values in enumerate(scalar.line_values):
                assert [(w >> t) & 1 for w in words[cycle]] == [values[x] for x in lines]
