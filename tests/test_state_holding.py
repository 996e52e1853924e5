"""Tests for the state-holding DFT (Section 4.5)."""

from dataclasses import replace

import pytest

from repro.circuits.benchmarks import get_circuit
from repro.core.builtin_gen import BuiltinGenConfig, BuiltinGenerator
from repro.core.state_holding import hold_indices, run_with_state_holding
from repro.faults.collapse import collapse_transition
from repro.faults.lists import all_transition_faults
from repro.logic.simulator import simulate_sequence

#: Two s298 configurations under which Fig 4.12 selects sets: no SWA
#: bound (2 sets at height 2), and s953's SWA_func (3 sets at height 2).
UNCONSTRAINED = BuiltinGenConfig(segment_length=100, rng_seed=4, time_limit=None)
BOUNDED = BuiltinGenConfig(segment_length=60, rng_seed=3, time_limit=None)
S953_SWA = 41.18


@pytest.fixture(scope="module")
def s298():
    return get_circuit("s298")


def _undetected(circuit, swa_func, config):
    """Fr: the collapsed faults a run without holding leaves undetected."""
    faults = collapse_transition(circuit, all_transition_faults(circuit))
    base = BuiltinGenerator(circuit, faults, swa_func, config=config).run()
    return [f for f in faults if f not in base.detected]


@pytest.fixture(scope="module")
def unconstrained_fr(s298):
    return _undetected(s298, None, UNCONSTRAINED)


@pytest.fixture(scope="module")
def bounded_fr(s298):
    return _undetected(s298, S953_SWA, BOUNDED)


class TestSimulateWithHolding:
    def test_held_bits_frozen_at_hold_cycles(self, s298):
        c = s298
        hold = c.state_lines[:4]
        import random

        rng = random.Random(0)
        seq = [[rng.randint(0, 1) for _ in c.inputs] for _ in range(16)]
        res = simulate_sequence(
            c, [0] * 14, seq, hold_indices=hold_indices(c, hold), hold_period_log2=2
        )
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
        res = simulate_sequence(
            c, [0] * 14, seq, hold_indices=hold_indices(c, hold), hold_period_log2=2
        )
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
            simulate_sequence(
                s298, [0] * 14, [[0, 0, 0]], hold_indices=[0], hold_period_log2=0
            )

    def test_empty_hold_set_is_plain_simulation(self, s298):
        c = s298
        seq = [[1, 0, 1]] * 8
        held = simulate_sequence(c, [0] * 14, seq, hold_indices=hold_indices(c, []))
        plain = simulate_sequence(c, [0] * 14, seq, keep_line_values=False)
        assert held.states == plain.states

    def test_introduces_unreachable_states(self, s298):
        """Holding steers the circuit off the functional trajectory."""
        c = s298
        import random

        rng = random.Random(2)
        seq = [[rng.randint(0, 1) for _ in c.inputs] for _ in range(40)]
        plain = simulate_sequence(c, [0] * 14, seq, keep_line_values=False)
        held = simulate_sequence(
            c, [0] * 14, seq, hold_indices=hold_indices(c, c.state_lines[:7])
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
        """Width-1 packed probes accept exactly what the lanes=1 oracle does.

        At R = 1 every decision consumes one seed, and it is either a
        fresh packed run or served by the look-ahead lane of the run
        before it (the next sequence's first seed, from the initial state).
        """
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
        assert (
            packed.stats.packed_batches + packed.stats.lookahead_hits
            == packed.stats.seeds_evaluated
        )


class TestSetSelection:
    """Fig 4.12's candidate sets, as :func:`run_with_state_holding` keeps them."""

    def test_sets_non_overlapping(self, s298, bounded_fr):
        holding = run_with_state_holding(s298, bounded_fr, S953_SWA, 2, BOUNDED)
        assert holding.n_sets >= 1
        seen = set()
        for subset in holding.sets:
            assert not (set(subset) & seen)
            seen |= set(subset)
        assert holding.n_bits == len(seen)

    def test_negative_height_rejected(self, s298, unconstrained_fr):
        with pytest.raises(ValueError, match="tree_height must be non-negative, got -1"):
            run_with_state_holding(s298, unconstrained_fr, None, -1, UNCONSTRAINED)

    def test_height_zero_is_the_root_set_alone(self, s298, unconstrained_fr):
        # Held every second cycle, the whole state register detects new faults.
        cfg = replace(UNCONSTRAINED, hold_period_log2=1)
        holding = run_with_state_holding(s298, unconstrained_fr, None, 0, cfg)
        assert holding.sets == [tuple(s298.state_lines)]

    def test_empty_inputs(self, s298):
        holding = run_with_state_holding(s298, [], 30.0, 2, UNCONSTRAINED)
        assert holding.sets == [] and holding.per_set_results == []


class TestHoldingRun:
    def test_improvement_within_bound(self, s298, bounded_fr):
        holding = run_with_state_holding(s298, bounded_fr, S953_SWA, 2, BOUNDED)
        assert holding.n_sets >= 1
        # Every newly detected fault was previously undetected.
        assert holding.newly_detected and holding.newly_detected <= set(bounded_fr)
        assert holding.peak_swa <= S953_SWA + 1e-9

    def test_each_set_constructed_once(self, s298, unconstrained_fr, monkeypatch):
        """The screen's full constructions are the per-set results, not rerun."""
        full_runs = []
        run = BuiltinGenerator.run

        def counting_run(self, hold_set=None):
            result = run(self, hold_set)
            if self.config.r_limit != 1:  # the Fig 4.12 probes run at R = 1
                full_runs.append((tuple(hold_set or ()), result))
            return result

        monkeypatch.setattr(BuiltinGenerator, "run", counting_run)
        holding = run_with_state_holding(s298, unconstrained_fr, None, 2, UNCONSTRAINED)
        assert holding.n_sets >= 1
        constructed = [subset for subset, _ in full_runs]
        assert len(constructed) == len(set(constructed))
        kept = [result for _, result in full_runs if result.detected]
        assert [id(r) for r in kept] == [id(r) for r in holding.per_set_results]
