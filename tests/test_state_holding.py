"""Tests for the state-holding DFT (Section 4.5)."""

import pytest

from repro.circuits.benchmarks import get_circuit
from repro.core.builtin_gen import BuiltinGenConfig, BuiltinGenerator
from repro.core.state_holding import (
    select_holding_sets,
    simulate_with_holding,
)
from repro.faults.collapse import collapse_transition
from repro.faults.lists import all_transition_faults
from repro.logic.simulator import simulate_sequence


@pytest.fixture(scope="module")
def s298():
    return get_circuit("s298")


class TestSimulateWithHolding:
    def test_held_bits_frozen_at_hold_cycles(self, s298):
        c = s298
        hold = c.state_lines[:4]
        import random

        rng = random.Random(0)
        seq = [[rng.randint(0, 1) for _ in c.inputs] for _ in range(16)]
        res = simulate_with_holding(c, [0] * 14, seq, hold_set=hold, hold_period_log2=2)
        index = {q: i for i, q in enumerate(c.state_lines)}
        for i in range(0, 16, 4):  # hold cycles
            for q in hold:
                assert res.states[i + 1][index[q]] == res.states[i][index[q]]

    def test_capture_cycles_not_held(self, s298):
        """At non-hold cycles the held flops behave functionally."""
        c = s298
        hold = c.state_lines[:4]
        import random

        rng = random.Random(1)
        seq = [[rng.randint(0, 1) for _ in c.inputs] for _ in range(12)]
        res = simulate_with_holding(c, [0] * 14, seq, hold_set=hold, hold_period_log2=2)
        from repro.logic.simulator import next_state, simulate_comb

        for i in range(12):
            if i % 4 == 0:
                continue
            values = simulate_comb(
                c,
                dict(zip(c.inputs, seq[i]))
                | dict(zip(c.state_lines, res.states[i])),
            )
            assert tuple(res.states[i + 1]) == next_state(c, values)

    def test_h_zero_rejected(self, s298):
        with pytest.raises(ValueError):
            simulate_with_holding(s298, [0] * 14, [[0, 0, 0]], ["q0"], hold_period_log2=0)

    def test_empty_hold_set_is_plain_simulation(self, s298):
        c = s298
        seq = [[1, 0, 1]] * 8
        held = simulate_with_holding(c, [0] * 14, seq, hold_set=[])
        plain = simulate_sequence(c, [0] * 14, seq, keep_line_values=False)
        assert held.states == plain.states

    def test_introduces_unreachable_states(self, s298):
        """Holding steers the circuit off the functional trajectory."""
        c = s298
        import random

        rng = random.Random(2)
        seq = [[rng.randint(0, 1) for _ in c.inputs] for _ in range(40)]
        plain = simulate_sequence(c, [0] * 14, seq, keep_line_values=False)
        held = simulate_with_holding(
            c, [0] * 14, seq, hold_set=c.state_lines[:7], hold_period_log2=2
        )
        assert set(held.states) != set(plain.states)


class TestHoldingProbe:
    """The R = Q = 1 probes of Fig 4.12 on the packed path."""

    def test_config_rejects_h_zero(self):
        # h = 0 would hold state during capture cycles (Section 4.5).
        with pytest.raises(ValueError, match="hold_period_log2 must be >= 1"):
            BuiltinGenConfig(hold_period_log2=0)

    @pytest.mark.parametrize("rng_seed", [4, 11, 13])
    def test_packed_probe_equals_scalar_oracle(self, s298, rng_seed):
        """Width-1 packed probes accept exactly what the lanes=1 oracle does."""
        faults = collapse_transition(s298, all_transition_faults(s298))
        hold = tuple(s298.state_lines[::2])
        runs = []
        for lanes in (1, None):
            cfg = BuiltinGenConfig(
                segment_length=60,
                r_limit=1,
                q_limit=1,
                rng_seed=rng_seed,
                time_limit=None,
                lanes=lanes,
            )
            gen = BuiltinGenerator(s298, faults, 28.0, config=cfg)
            runs.append((gen, gen.run(hold_set=hold)))
        (oracle, res_o), (packed, res_p) = runs
        segments = [seg for m in res_o.sequences for seg in m.segments]
        assert segments
        assert [seg for m in res_p.sequences for seg in m.segments] == segments
        assert res_p.coverage == res_o.coverage
        assert res_p.detected == res_o.detected
        assert packed.stats.seeds_evaluated == oracle.stats.seeds_evaluated
        assert oracle.stats.scalar_trials == oracle.stats.seeds_evaluated
        assert packed.stats.scalar_trials == 0
        assert packed.stats.packed_batches == packed.stats.seeds_evaluated


class TestSetSelection:
    @pytest.fixture(scope="class")
    def remaining(self, s298):
        faults = collapse_transition(s298, all_transition_faults(s298))
        cfg = BuiltinGenConfig(segment_length=100, time_limit=15, rng_seed=4)
        base = BuiltinGenerator(s298, faults, 30.0, config=cfg).run()
        return [f for f in faults if f not in base.detected]

    def test_sets_non_overlapping(self, s298, remaining):
        cfg = BuiltinGenConfig(segment_length=100, time_limit=8, rng_seed=4)
        selection = select_holding_sets(
            s298, remaining, 30.0, tree_height=2, config=cfg
        )
        seen = set()
        for subset in selection.sets:
            assert not (set(subset) & seen)
            seen |= set(subset)
        assert selection.n_bits == len(seen)

    def test_negative_height_rejected(self, s298, remaining):
        with pytest.raises(ValueError, match="tree_height must be non-negative, got -1"):
            select_holding_sets(s298, remaining, None, tree_height=-1)

    def test_height_zero_is_the_root_set_alone(self, s298, remaining):
        cfg = BuiltinGenConfig(segment_length=100, time_limit=8, rng_seed=4)
        selection = select_holding_sets(s298, remaining, 30.0, tree_height=0, config=cfg)
        assert selection.sets in ([], [tuple(s298.state_lines)])

    def test_empty_inputs(self, s298):
        selection = select_holding_sets(s298, [], 30.0, tree_height=2)
        assert selection.sets == []

    def test_node_detections_recorded(self, s298, remaining):
        cfg = BuiltinGenConfig(segment_length=100, time_limit=8, rng_seed=4)
        selection = select_holding_sets(
            s298, remaining, 30.0, tree_height=1, config=cfg
        )
        assert (0, 0) in selection.node_detections


class TestHoldingRun:
    def test_improvement_within_bound(self, s298):
        from repro.core.state_holding import run_with_state_holding

        faults = collapse_transition(s298, all_transition_faults(s298))
        cfg = BuiltinGenConfig(segment_length=100, time_limit=12, rng_seed=4)
        base = BuiltinGenerator(s298, faults, 30.0, config=cfg).run()
        fr = [f for f in faults if f not in base.detected]
        holding = run_with_state_holding(
            s298, fr, 30.0, tree_height=2, config=cfg
        )
        # Every newly detected fault was previously undetected.
        assert holding.newly_detected <= set(fr)
        assert holding.peak_swa <= 30.0 + 1e-9
