"""Tests for fault-sharded grading (``FaultGrader(shards=N)``)."""

import random

import pytest

from repro import obs
from repro.circuits.benchmarks import get_circuit
from repro.faults.collapse import collapsed_transition_faults
from repro.faults.fsim import (
    MIN_FAULTS_PER_SHARD,
    FaultGrader,
    partition_shards,
)
from repro.logic.simulator import make_broadside_test
from repro.resilience import faultpoints


@pytest.fixture(autouse=True)
def _disarmed_faultpoints():
    faultpoints.install(None)
    yield
    faultpoints.install(None)


def random_tests(circuit, n, seed=7):
    rng = random.Random(seed)
    return [
        make_broadside_test(
            circuit,
            [rng.randint(0, 1) for _ in circuit.flops],
            [rng.randint(0, 1) for _ in circuit.inputs],
            [rng.randint(0, 1) for _ in circuit.inputs],
        )
        for _ in range(n)
    ]


class TestPartition:
    def test_partitions_are_contiguous_and_cover(self):
        items = list(range(10))
        shards = partition_shards(items, 4)
        assert [len(s) for s in shards] == [3, 3, 2, 2]
        assert [x for s in shards for x in s] == items

    def test_more_shards_than_items(self):
        assert partition_shards([1, 2], 5) == [[1], [2]]

    def test_single_shard_is_identity(self):
        assert partition_shards([1, 2, 3], 1) == [[1, 2, 3]]

    def test_empty(self):
        assert partition_shards([], 3) == []

    def test_sizes_differ_by_at_most_one(self):
        for n in range(1, 40):
            for k in range(1, 9):
                sizes = [len(s) for s in partition_shards(list(range(n)), k)]
                assert sum(sizes) == n
                assert max(sizes) - min(sizes) <= 1
                assert 0 not in sizes


class TestShardedEqualsSerial:
    @pytest.fixture(scope="class")
    def setup(self):
        c = get_circuit("s298")
        faults = collapsed_transition_faults(c)
        tests = random_tests(c, 48)
        serial = FaultGrader(c, faults).preview(tests)
        return c, faults, tests, serial

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_preview_identical(self, setup, shards):
        c, faults, tests, serial = setup
        with FaultGrader(c, faults, shards=shards) as grader:
            assert grader.preview(tests) == serial

    def test_preview_groups_identical(self, setup):
        c, faults, tests, _ = setup
        groups = [tests[:20], [], tests[20:35], tests[35:]]
        serial_groups = FaultGrader(c, faults).preview_groups(groups)
        with FaultGrader(c, faults, shards=4) as grader:
            assert grader.preview_groups(groups) == serial_groups

    def test_jobs_caps_workers_not_results(self, setup):
        c, faults, tests, serial = setup
        with FaultGrader(c, faults, shards=4, jobs=2) as grader:
            assert grader.preview(tests) == serial

    def test_commit_after_sharded_preview(self, setup):
        """Fault dropping stays consistent when previews are sharded."""
        c, faults, tests, _ = setup
        plain = FaultGrader(c, faults)
        with FaultGrader(c, faults, shards=2) as sharded:
            for batch in (tests[:24], tests[24:]):
                expect = plain.preview(batch)
                got = sharded.preview(batch)
                assert got == expect
                plain.commit(batch)
                sharded.commit(batch)
                assert sharded.remaining == plain.remaining
                assert sharded.detected == plain.detected


class TestFallbacks:
    def test_invalid_shards_rejected(self):
        c = get_circuit("s27")
        with pytest.raises(ValueError):
            FaultGrader(c, [], shards=0)
        with pytest.raises(ValueError):
            FaultGrader(c, [], shards=2, jobs=0)

    def test_small_frontier_grades_inline(self):
        c = get_circuit("s27")
        faults = collapsed_transition_faults(c)
        tests = random_tests(c, 16)
        grader = FaultGrader(c, faults, shards=4)
        assert len(faults) < 4 * MIN_FAULTS_PER_SHARD
        try:
            serial = FaultGrader(c, faults).preview(tests)
            assert grader.preview(tests) == serial
            assert grader._pool is None  # never fanned out
        finally:
            grader.close()

    def test_one_worker_grades_inline(self):
        c = get_circuit("s298")
        faults = collapsed_transition_faults(c)
        tests = random_tests(c, 16)
        assert len(faults) >= 4 * MIN_FAULTS_PER_SHARD
        with FaultGrader(c, faults, shards=4, jobs=1) as grader:
            assert grader.preview(tests) == FaultGrader(c, faults).preview(tests)
            assert grader._pool is None  # never started a pool

    def test_shards_1_never_pools(self):
        c = get_circuit("s298")
        faults = collapsed_transition_faults(c)
        grader = FaultGrader(c, faults)
        grader.preview(random_tests(c, 8))
        assert grader._pool is None


class TestCrashRecovery:
    def test_crashed_shard_retries_to_identical_result(self):
        c = get_circuit("s298")
        faults = collapsed_transition_faults(c)
        tests = random_tests(c, 32)
        serial = FaultGrader(c, faults).preview(tests)

        faultpoints.install("runner.task:fsim.shard/0:crash_once")
        obs.enable()
        obs.reset()
        try:
            with FaultGrader(c, faults, shards=2) as grader:
                assert grader.preview(tests) == serial
            counters = obs.registry().snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert counters.get("runner.worker_crashes", 0) == 1
        assert counters.get("runner.retries", 0) == 1
        assert counters.get("fsim.shard.inline_recoveries", 0) == 0

    def test_exhausted_shard_regrades_inline(self):
        """A shard that always crashes degrades to inline grading, not loss."""
        c = get_circuit("s298")
        faults = collapsed_transition_faults(c)
        tests = random_tests(c, 32)
        serial = FaultGrader(c, faults).preview(tests)

        faultpoints.install("runner.task:fsim.shard/1:crash")
        obs.enable()
        obs.reset()
        try:
            with FaultGrader(c, faults, shards=2) as grader:
                assert grader.preview(tests) == serial
            counters = obs.registry().snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert counters.get("fsim.shard.inline_recoveries", 0) == 1
        assert counters.get("runner.task_failures", 0) == 1


class TestObservability:
    def test_shard_metrics_and_worker_merge(self):
        c = get_circuit("s298")
        faults = collapsed_transition_faults(c)
        tests = random_tests(c, 32)
        obs.enable()
        obs.reset()
        try:
            with FaultGrader(c, faults, shards=2) as grader:
                grader.preview(tests)
            snap = obs.registry().snapshot()
            counters = snap["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert counters.get("fsim.shard.passes", 0) == 1
        assert counters.get("fsim.shard.tasks", 0) == 2
        # Worker-side PPSFP metrics were merged back into the parent.
        assert any(k.startswith("fsim.") and "shard" not in k for k in counters)
        hist = snap["histograms"].get("fsim.shard.faults_per_shard")
        assert hist is not None and hist["count"] == 2
