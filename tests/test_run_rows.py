"""``run_rows``: one target's Table 4.3 rows, each equal to its own run.

:func:`repro.core.builtin_gen.run_rows` lets a constrained row take the
``buffers`` row's Fig 4.9 decisions while each accepted nothing or its
accepted seed's trace stays within the row's bound.  Every row must still
equal an independent ``BuiltinGenerator(target, faults, bound,
config).run()`` on every result field, and consume the same seeds.
These tests pin that on the targets and bounds of ``repro-eda table
4.3`` and of the Chapter 4 campaign, at their shipped seeds and a
hold-out seed each, packed and through the ``lanes=1`` scalar oracle.
"""

import dataclasses
from functools import lru_cache

import pytest

from repro.circuits.benchmarks import get_circuit
from repro.core.builtin_gen import (
    BuiltinGenConfig,
    BuiltinGenerator,
    BuiltinGenResult,
    run_rows,
    swa_exceeds,
)
from repro.experiments.artifacts import ARTIFACTS
from repro.experiments.tables4 import _table_4_3_target, collapsed_faults

#: (registry entry, rng_seed): the shipped seed, then a hold-out seed.
CAMPAIGNS = [("4.3", 1), ("4.3", 7), ("chapter4", 2), ("chapter4", 5)]


def _config(artifact_id: str, seed: int, lanes: int | None) -> BuiltinGenConfig:
    """The entry's generation config at ``seed``, with no wall-clock cap."""
    params = dict(ARTIFACTS[artifact_id].params["config"])
    params.update(rng_seed=seed, lanes=lanes, time_limit=None)
    return BuiltinGenConfig(**params)


@lru_cache(maxsize=None)
def _campaign(artifact_id: str, seed: int, lanes: int | None):
    """Per target: its Table 4.3 cases and each row's ``GenStats``."""
    params = ARTIFACTS[artifact_id].params
    config = _config(artifact_id, seed, lanes)
    out = []
    for target in params["targets"]:
        stats = []
        run = BuiltinGenerator.run

        def recording_run(self, hold_set=None):
            result = run(self, hold_set)
            stats.append(self.stats)
            return result

        BuiltinGenerator.run = recording_run
        try:
            cases = _table_4_3_target(
                target, params["drivers"], config, params["n_sequences"], params["func_length"]
            )
        finally:
            BuiltinGenerator.run = run
        out.append((target, cases, stats))
    return config, out


def _assert_same_result(got: BuiltinGenResult, want: BuiltinGenResult, label: str) -> None:
    for field in dataclasses.fields(BuiltinGenResult):
        assert getattr(got, field.name) == getattr(want, field.name), (label, field.name)


@pytest.mark.parametrize(
    "artifact_id, seed, lanes",
    [(a, s, None) for a, s in CAMPAIGNS] + [("4.3", 1, 1), ("chapter4", 2, 1)],
)
def test_rows_equal_independent_runs(artifact_id, seed, lanes):
    config, targets = _campaign(artifact_id, seed, lanes)
    for target, cases, stats in targets:
        circuit = get_circuit(target)
        faults = collapsed_faults(circuit)
        assert len(stats) == len(cases)  # one BuiltinGenerator.run per row
        for case, row_stats in zip(cases, stats):
            alone = BuiltinGenerator(circuit, faults, case.swa_func, config=config)
            _assert_same_result(case.result, alone.run(), f"{target}/{case.driver}")
            assert row_stats.seeds_evaluated == alone.stats.seeds_evaluated
            assert row_stats.seeds_accepted == alone.stats.seeds_accepted


def test_direct_call_matches_and_logs_the_first_unconstrained_row():
    """``run_rows`` on explicit bounds, a constrained row first."""
    circuit = get_circuit("s298")
    faults = collapsed_faults(circuit)
    config = _config("4.3", 1, None)
    bounds = [30.0, None, 45.0, None]
    rows = run_rows(circuit, faults, bounds, config)
    assert len(rows) == len(bounds)
    for bound, row in zip(bounds, rows):
        alone = BuiltinGenerator(circuit, faults, bound, config=config).run()
        _assert_same_result(row, alone, f"bound {bound}")


def _decisions(stats) -> int:
    return stats.packed_batches + stats.lookahead_hits + stats.replayed_decisions


def test_reuse_counts_on_table_4_3():
    """At the shipped seed, 57 of the constrained rows' decisions are replayed."""
    _, targets = _campaign("4.3", 1, None)
    stats = [s for _, _, row_stats in targets for s in row_stats]
    assert sum(s.replayed_decisions for s in stats) == 57
    assert sum(s.packed_batches for s in stats) == 47
    assert sum(map(_decisions, stats)) == 128
    # The buffers rows log; they never replay.
    for _, cases, row_stats in targets:
        assert cases[0].driver == "buffers" and row_stats[0].replayed_decisions == 0


def test_bound_above_every_scanned_swa_replays_the_whole_row():
    """chapter4 at seed 2: s298 under s820 takes all 27 decisions from buffers."""
    _, targets = _campaign("chapter4", 2, None)
    target, cases, stats = targets[0]
    assert target == "s298"
    row = next(i for i, case in enumerate(cases) if case.driver == "s820")
    assert stats[row].replayed_decisions == _decisions(stats[row]) == 27
    assert stats[row].packed_batches == stats[row].lookahead_hits == 0
    assert cases[row].result.sequences == cases[0].result.sequences


@pytest.mark.parametrize("artifact_id, seed, hits", [("4.3", 1, 24), ("chapter4", 2, 37)])
def test_look_ahead_serves_decisions(artifact_id, seed, hits):
    """Packed rows serve decisions from the previous run's look-ahead lanes."""
    _, targets = _campaign(artifact_id, seed, None)
    assert sum(s.lookahead_hits for _, _, stats in targets for s in stats) == hits


@pytest.mark.parametrize(
    "swa, bound, exceeds",
    [
        (30.0, 30.0, False),
        (30.0 + 1e-10, 30.0, False),
        (30.0 + 1e-8, 30.0, True),
        (0.0, 0.0, False),
    ],
)
def test_swa_exceeds(swa, bound, exceeds):
    assert swa_exceeds(swa, bound) is exceeds
