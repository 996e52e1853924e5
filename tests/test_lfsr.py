"""Tests for the LFSR / MISR hardware models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bist.lfsr import (
    Lfsr,
    LfsrLanes,
    Misr,
    PRIMITIVE_TAPS,
    primitive_taps,
    signature_of,
)


class TestLfsr:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_maximal_period(self, n):
        """A primitive polynomial cycles through all 2**n - 1 non-zero states."""
        lfsr = Lfsr(n=n, seed=1)
        assert lfsr.period() == (1 << n) - 1

    def test_never_all_zero(self):
        lfsr = Lfsr(n=8, seed=5)
        for _ in range(600):
            lfsr.step()
            assert lfsr.state != 0

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            Lfsr(n=4, seed=0)
        with pytest.raises(ValueError):
            Lfsr(n=4, seed=16)

    def test_reseed(self):
        lfsr = Lfsr(n=8, seed=3)
        lfsr.run(10)
        lfsr.reseed(3)
        first = lfsr.run(10)
        lfsr.reseed(3)
        assert lfsr.run(10) == first

    def test_bits_match_state(self):
        lfsr = Lfsr(n=4, seed=0b1010)
        assert lfsr.bits == [0, 1, 0, 1]

    def test_untabulated_size(self):
        with pytest.raises(ValueError):
            primitive_taps(1000)

    def test_bit_balance(self):
        """Each stage is 0/1 with probability ~1/2 over the period."""
        n = 10
        lfsr = Lfsr(n=n, seed=1)
        ones = 0
        period = (1 << n) - 1
        for _ in range(period):
            ones += lfsr.state & 1
            lfsr.step()
        assert ones == (1 << (n - 1))  # exactly 2^(n-1) ones per stage

    def test_32_stage_tabulated(self):
        assert 32 in PRIMITIVE_TAPS
        Lfsr(n=32, seed=0xDEADBEEF).run(100)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_step_matches_per_tap_parity(self, n):
        """The tap-mask popcount feedback equals the per-tap XOR loop."""
        taps = primitive_taps(n)
        lfsr = Lfsr(n=n, seed=3)
        for _ in range(200):
            state = lfsr.state
            expect = 0
            for t in taps:
                expect ^= (state >> (t - 1)) & 1
            assert lfsr.step() == expect


class TestLfsrLanes:
    def test_lanes_match_scalar(self):
        """Every lane traverses its scalar Lfsr's exact state sequence."""
        n = 8
        seeds = [1, 2, 3, 0x55, 0xFF]
        lanes = LfsrLanes(n, seeds)
        scalars = [Lfsr(n=n, seed=s) for s in seeds]
        for _ in range(100):
            packed = lanes.step()
            for t, lfsr in enumerate(scalars):
                assert (packed >> t) & 1 == lfsr.step()
                assert lanes.states[t] == lfsr.state

    def test_full_64_lanes(self):
        seeds = list(range(1, 65))
        lanes = LfsrLanes(10, seeds)
        lanes.run(20)
        scalars = [Lfsr(n=10, seed=s) for s in seeds]
        for lfsr in scalars:
            lfsr.run(20)
        assert lanes.states == [lfsr.state for lfsr in scalars]

    def test_lane_limits(self):
        with pytest.raises(ValueError):
            LfsrLanes(4, [])
        with pytest.raises(ValueError):
            LfsrLanes(4, [1] * 65)
        with pytest.raises(ValueError):
            LfsrLanes(4, [0])


def _assert_batch_matches_sequence(tpg, seeds, length):
    """Lane ``t`` of ``sequence_batch`` is ``sequence(seeds[t], length)``."""
    rows = tpg.sequence_batch(seeds, length)
    for t, seed in enumerate(seeds):
        got = [[(w >> t) & 1 for w in row] for row in rows]
        assert got == tpg.sequence(seed, length)


class TestSequenceBatch:
    def test_developed_tpg_batch_matches_sequence(self):
        from repro.bist.tpg import DevelopedTpg
        from repro.circuits.benchmarks import get_circuit

        tpg = DevelopedTpg.for_circuit(get_circuit("s298"))
        _assert_batch_matches_sequence(tpg, [1, 19, 0xABC, (1 << tpg.n_lfsr) - 1], 30)

    def test_reference_tpg_batch_matches_sequence(self):
        from repro.bist.tpg import ReferenceTpg
        from repro.circuits.benchmarks import get_circuit

        tpg = ReferenceTpg.for_circuit(get_circuit("s27"))
        _assert_batch_matches_sequence(tpg, [1, 7, 500], 25)

    @pytest.mark.parametrize("circuit", ["s298", "s344"])
    def test_weighted_tpg_batch_matches_sequence(self, circuit):
        """The COP-weighted TPG, whose AND and OR trees both occur here."""
        from repro.bist.weighted import WeightedTpg
        from repro.circuits.benchmarks import get_circuit

        tpg = WeightedTpg.for_circuit(get_circuit(circuit))
        assert {kind for _, _, kind in tpg.plan} >= {"and", "or"}
        _assert_batch_matches_sequence(tpg, [1, 19, 0xABC, (1 << tpg.n_lfsr) - 1], 30)


class TestMisr:
    def test_deterministic(self):
        responses = [[1, 0, 1], [0, 1, 1], [1, 1, 1]]
        assert signature_of(responses, 8) == signature_of(responses, 8)

    def test_order_sensitive(self):
        a = [[1, 0], [0, 1]]
        b = [[0, 1], [1, 0]]
        assert signature_of(a, 8) != signature_of(b, 8)

    def test_single_bit_error_detected(self):
        good = [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 0]]
        bad = [row[:] for row in good]
        bad[1][2] ^= 1
        assert signature_of(good, 16) != signature_of(bad, 16)

    def test_reset(self):
        misr = Misr(n=8)
        misr.absorb([1, 1])
        misr.reset()
        assert misr.state == 0

    def test_wide_response_folded(self):
        misr = Misr(n=4)
        misr.absorb([0] * 4 + [1])  # bit 4 folds onto bit 0
        misr2 = Misr(n=4)
        misr2.absorb([1])
        assert misr.state == misr2.state

    @settings(max_examples=30)
    @given(
        st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4), min_size=1, max_size=10)
    )
    def test_linearity(self, stream):
        """MISRs are linear over GF(2): sig(a xor b) = sig(a) xor sig(b)."""
        zeros = [[0, 0, 0, 0] for _ in stream]
        sig_zero = signature_of(zeros, 8)
        sig = signature_of(stream, 8)
        doubled = [[b ^ b2 for b, b2 in zip(row, row)] for row in stream]
        assert signature_of(doubled, 8) == sig_zero
        # sig(a) xor sig(a) == sig(0): check via int xor
        assert sig ^ sig == 0

    def test_int_absorb_matches_list(self):
        a = Misr(n=8)
        b = Misr(n=8)
        a.absorb([1, 0, 1])
        b.absorb(0b101)
        assert a.state == b.state
