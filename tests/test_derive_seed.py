"""Property and regression tests for the per-task seed derivation.

``derive_seed`` is the keystone of the retry/rerun determinism story: a
retried task, or a killed campaign run again, re-runs with the same key
and therefore the same seed, so its row is byte-identical to one that
never failed.  The
property tests pin the contract (stable, order-independent, in-range,
key-sensitive); the pinned-value test freezes the actual mixing function
so a refactor cannot silently reshuffle every published table.
"""

import random

from hypothesis import given, strategies as st

from repro.experiments.runner import derive_seed

_keys = st.text(min_size=1, max_size=40)
_seeds = st.integers(min_value=0, max_value=2**31 - 1)


@given(_seeds, _keys)
def test_stable_for_same_inputs(base_seed, key):
    assert derive_seed(base_seed, key) == derive_seed(base_seed, key)


@given(_seeds, _keys)
def test_always_a_positive_31_bit_seed(base_seed, key):
    value = derive_seed(base_seed, key)
    assert 1 <= value < 2**31 - 1


@given(_seeds, st.lists(_keys, min_size=2, max_size=8, unique=True), st.randoms())
def test_independent_of_derivation_order(base_seed, keys, rng):
    """Deriving in any task order yields the same per-key mapping."""
    forward = {k: derive_seed(base_seed, k) for k in keys}
    shuffled = list(keys)
    rng.shuffle(shuffled)
    assert {k: derive_seed(base_seed, k) for k in shuffled} == forward


def test_distinct_across_campaign_keys():
    """The real campaign key namespace gets distinct streams per row."""
    keys = [f"table4.3/{c}" for c in ("s27", "s298", "s344", "s386", "s526")]
    keys += [f"table4.4/{c}/{d}" for c in ("s298", "s526") for d in ("s344", "s820")]
    seeds = [derive_seed(11, k) for k in keys]
    assert len(set(seeds)) == len(seeds)


def test_distinct_across_base_seeds():
    sample = random.Random(0)
    bases = sample.sample(range(2**20), 50)
    seeds = {derive_seed(b, "table4.3/s298") for b in bases}
    assert len(seeds) == 50


def test_pinned_values():
    """Frozen outputs: changing these reshuffles every published table."""
    assert derive_seed(5, "table4.3/s298") == 885368360
    assert derive_seed(5, "table4.3/s344") == 153091704
    assert derive_seed(1, "table4.4/s526/s820") == 1124126695
    assert derive_seed(123456, "x") == 1864235207
