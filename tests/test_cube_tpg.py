"""Tests for the primary input cube and the TPG structures."""

import pytest

from repro.bist import cube as cube_module
from repro.bist.cube import InputCube, compute_input_cube, synchronization_count
from repro.bist.tpg import DevelopedTpg, ReferenceTpg
from repro.circuits.benchmarks import get_circuit
from repro.circuits.netlist import Circuit
from repro.logic.values import X


def sync_circuit():
    """reset=1 forces both flops to 0: a strongly synchronizing input."""
    c = Circuit(name="sync")
    c.add_input("reset")
    c.add_input("d")
    c.add_gate("nrst", "NOT", ["reset"])
    c.add_gate("d0", "AND", ["nrst", "d"])
    c.add_gate("d1", "AND", ["nrst", "q0"])
    c.add_dff(q="q0", d="d0")
    c.add_dff(q="q1", d="d1")
    c.add_output("d1")
    c.validate()
    return c


class TestCube:
    def test_synchronization_counts(self):
        c = sync_circuit()
        assert synchronization_count(c, "reset", 1) == 2  # both flops forced 0
        assert synchronization_count(c, "reset", 0) == 0

    def test_cube_biases_away_from_synchronizing_value(self):
        c = sync_circuit()
        cube = compute_input_cube(c)
        # reset=1 synchronizes 2 flops, reset=0 none -> C(reset)=0.
        assert cube.value_of(0) == 0

    def test_data_input_biased_toward_one(self):
        c = sync_circuit()
        cube = compute_input_cube(c)
        # d=0 forces d0 (one next-state var) to 0; d=1 leaves it unknown,
        # so the cube biases d toward 1.
        assert cube.value_of(1) == 1

    def test_cube_is_computed_once_per_netlist_version(self, monkeypatch):
        """A second TPG reuses the circuit's cube; a netlist edit recomputes it."""
        calls = []

        def counting(circuit, pi_name, value):
            calls.append((pi_name, value))
            return synchronization_count(circuit, pi_name, value)

        monkeypatch.setattr(cube_module, "synchronization_count", counting)
        c = sync_circuit()
        first = DevelopedTpg.for_circuit(c)
        assert len(calls) == 4  # two inputs, each assigned 0 and 1
        assert DevelopedTpg.for_circuit(c).cube is first.cube
        assert len(calls) == 4
        c.add_input("e")
        assert DevelopedTpg.for_circuit(c).cube.values == (0, 1, X)
        assert len(calls) == 10

    def test_n_specified(self):
        assert InputCube(values=(0, 1, X, X)).n_specified == 2


class TestDevelopedTpg:
    def test_register_sizing(self):
        c = get_circuit("s298")
        tpg = DevelopedTpg.for_circuit(c, m=3)
        nsp = tpg.cube.n_specified
        npi = len(c.inputs)
        assert tpg.n_register_bits == 3 * nsp + (npi - nsp)
        assert tpg.n_lfsr == 32

    def test_sequences_deterministic(self):
        c = get_circuit("s298")
        tpg = DevelopedTpg.for_circuit(c)
        assert tpg.sequence(77, 20) == tpg.sequence(77, 20)
        assert tpg.sequence(77, 20) != tpg.sequence(78, 20)

    def test_vector_width(self):
        c = get_circuit("s298")
        tpg = DevelopedTpg.for_circuit(c)
        vec = tpg.sequence(5, 3)[0]
        assert len(vec) == len(c.inputs)
        assert set(vec) <= {0, 1}

    def test_requires_seed(self):
        c = get_circuit("s298")
        tpg = DevelopedTpg.for_circuit(c)
        with pytest.raises(RuntimeError):
            DevelopedTpg.for_circuit(c).next_vector()

    def test_bias_probability(self):
        """A C(i)=0 input sees 0 with probability ~1 - 1/2^m."""
        c = sync_circuit()
        tpg = DevelopedTpg.for_circuit(c, m=3)
        seq = tpg.sequence(123, 4000)
        zeros = sum(1 for v in seq if v[0] == 0)
        assert zeros / len(seq) == pytest.approx(1 - 1 / 8, abs=0.05)

    def test_init_cycles(self):
        c = get_circuit("s298")
        tpg = DevelopedTpg.for_circuit(c)
        assert tpg.init_cycles == tpg.n_register_bits


class TestReferenceTpg:
    def test_lfsr_grows_with_inputs(self):
        c = get_circuit("s298")
        ref = ReferenceTpg.for_circuit(c, m=3, d=4)
        assert ref.n_lfsr == 4 * len(c.inputs)

    def test_m_bounded_by_d(self):
        c = get_circuit("s298")
        with pytest.raises(ValueError):
            ReferenceTpg.for_circuit(c, m=5, d=4)

    def test_sequence_shape(self):
        c = get_circuit("s298")
        ref = ReferenceTpg.for_circuit(c)
        seq = ref.sequence(3, 10)
        assert len(seq) == 10
        assert all(len(v) == len(c.inputs) for v in seq)

    def test_developed_smaller_for_wide_inputs(self):
        """The developed TPG's flop budget beats [73] on wide interfaces."""
        c = get_circuit("wb_dma")  # 215 inputs
        ref = ReferenceTpg.for_circuit(c)
        dev = DevelopedTpg.for_circuit(c)
        assert dev.n_lfsr + dev.n_register_bits < ref.n_lfsr


class TestSequenceBatchValidation:
    """sequence_batch rejects bad seed lists with named sizes."""

    def test_empty_and_oversized_seed_lists(self):
        c = get_circuit("s298")
        tpg = DevelopedTpg.for_circuit(c)
        with pytest.raises(ValueError, match="got 0 seeds"):
            tpg.sequence_batch([], 4)
        with pytest.raises(ValueError, match="got 65 seeds"):
            tpg.sequence_batch(list(range(1, 66)), 4)

    def test_zero_seed_names_lane(self):
        c = get_circuit("s298")
        tpg = DevelopedTpg.for_circuit(c)
        with pytest.raises(
            ValueError, match=r"DevelopedTpg.sequence_batch: seeds\[1\] = 0"
        ):
            tpg.sequence_batch([5, 0, 7], 4)

    def test_overwide_seed_rejected(self):
        c = get_circuit("s298")
        tpg = DevelopedTpg.for_circuit(c)
        with pytest.raises(ValueError, match="non-zero 32-bit LFSR seed"):
            tpg.sequence_batch([1 << 32], 4)

    def test_valid_batch_still_matches_scalar(self):
        c = get_circuit("s298")
        tpg = DevelopedTpg.for_circuit(c)
        rows = tpg.sequence_batch([9, 21], 6)
        for t, seed in enumerate((9, 21)):
            scalar = tpg.sequence(seed, 6)
            got = [[(w >> t) & 1 for w in row] for row in rows]
            assert got == scalar
