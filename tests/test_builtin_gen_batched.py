"""Regression: the packed Fig 4.9 loop equals the one-seed scalar oracle.

With ``lanes`` above 1 the engine evaluates up to that many candidate
seeds per packed simulation, but it must accept *exactly* the segments the
``lanes=1`` one-seed-at-a-time loop accepts: same seeds in the same order,
same truncated lengths, same coverage, same peak SWA, and the same number
of seeds drawn from the RNG stream.  These tests pin that contract on two
circuits (s298, s953), with and without an SWA bound, under state
holding, and across lane widths.
"""

import pytest

from repro.circuits.benchmarks import get_circuit
from repro.core.builtin_gen import BuiltinGenConfig, BuiltinGenerator
from repro.faults.collapse import collapsed_transition_faults


def _run_pair(circuit, faults, swa_func, hold_set=None, **overrides):
    """Run the scalar (lanes=1) and packed generators; return (gen, result) pairs."""
    params = dict(
        segment_length=40,
        r_limit=8,
        q_limit=2,
        rng_seed=7,
        time_limit=None,
    )
    params.update(overrides)
    out = []
    for lanes in (1, None):
        cfg = BuiltinGenConfig(lanes=lanes, **params)
        gen = BuiltinGenerator(circuit, faults, swa_func, config=cfg)
        result = gen.run(hold_set=hold_set) if hold_set else gen.run()
        out.append((gen, result))
    return out


def _assert_identical(scalar_pair, packed_pair):
    (gen_s, res_s), (gen_b, res_b) = scalar_pair, packed_pair
    segs_s = [seg for m in res_s.sequences for seg in m.segments]
    segs_b = [seg for m in res_b.sequences for seg in m.segments]
    assert segs_s == segs_b
    assert res_s.coverage == res_b.coverage
    assert res_s.peak_swa == res_b.peak_swa
    assert res_s.detected == res_b.detected
    assert gen_s.stats.seeds_evaluated == gen_b.stats.seeds_evaluated
    assert gen_s.stats.seeds_accepted == gen_b.stats.seeds_accepted


@pytest.mark.parametrize("name", ["s298", "s953"])
class TestBatchedEqualsScalar:
    def test_unconstrained(self, name):
        c = get_circuit(name)
        faults = collapsed_transition_faults(c)
        scalar, packed = _run_pair(c, faults, None)
        _assert_identical(scalar, packed)
        assert packed[0].stats.packed_batches > 0
        assert scalar[0].stats.packed_batches == 0

    def test_swa_bounded(self, name):
        """Lane-wise truncation at the SWA bound matches the scalar rule."""
        c = get_circuit(name)
        faults = collapsed_transition_faults(c)
        scalar, packed = _run_pair(c, faults, 30.0)
        _assert_identical(scalar, packed)

    def test_with_state_holding(self, name):
        """Held state variables skip capture identically in packed lanes."""
        c = get_circuit(name)
        faults = collapsed_transition_faults(c)
        hold = tuple(c.state_lines[:2])
        scalar, packed = _run_pair(c, faults, 28.0, hold_set=hold)
        _assert_identical(scalar, packed)


class TestBatchPolicy:
    def test_narrow_lanes_still_identical(self):
        """Any lane width must reproduce the scalar stream (RNG rewind)."""
        c = get_circuit("s298")
        faults = collapsed_transition_faults(c)
        base = _run_pair(c, faults, None)[0]
        for lanes in (None, 2, 7, 64):
            cfg = BuiltinGenConfig(
                segment_length=40, r_limit=8, q_limit=2, rng_seed=7,
                time_limit=None, lanes=lanes,
            )
            gen = BuiltinGenerator(c, faults, None, config=cfg)
            _assert_identical(base, (gen, gen.run()))

    def test_batched_disabled_uses_scalar_path(self):
        c = get_circuit("s298")
        faults = collapsed_transition_faults(c)
        cfg = BuiltinGenConfig(
            segment_length=40, r_limit=4, q_limit=1, rng_seed=7,
            time_limit=None, lanes=1,
        )
        gen = BuiltinGenerator(c, faults, None, config=cfg)
        gen.run()
        assert gen.stats.packed_batches == 0
        assert gen.stats.scalar_trials == gen.stats.seeds_evaluated

    @pytest.mark.parametrize("lanes", [0, 65])
    def test_lanes_outside_one_word_rejected(self, lanes):
        with pytest.raises(ValueError, match="lanes must be in 1..64"):
            BuiltinGenConfig(lanes=lanes)

    def test_sharded_grading_rejected(self):
        """Fault grading runs in the calling process; only ``--jobs`` is parallel."""
        with pytest.raises(ValueError, match="grade_shards must be 1, got 2"):
            BuiltinGenConfig(grade_shards=2)
