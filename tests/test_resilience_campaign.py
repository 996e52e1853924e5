"""End-to-end resilience campaigns: injected faults and degradation.

These tests drive real worker crashes (``os._exit``), watchdog-killed
hangs, and flaky-then-succeed schedules through the self-healing pool via
:mod:`repro.resilience.faultpoints`, asserting the recovered campaign is
byte-identical to an uninjected run -- the determinism contract of the
retry design (same task kwargs => same derived seed => same row).
"""

import pytest

from repro import obs
from repro.core.builtin_gen import BuiltinGenConfig
from repro.experiments.runner import ExperimentTask, run_tasks
from repro.experiments.tables4 import render_table_4_3, run_table_4_3
from repro.resilience import faultpoints
from repro.resilience.policy import RetryPolicy, TaskFailure


@pytest.fixture(autouse=True)
def _clean_state():
    faultpoints.install(None)
    obs.disable()
    obs.reset()
    yield
    faultpoints.install(None)
    obs.disable()
    obs.reset()


def _square(x):
    return x * x


def _tasks(count=4):
    return [
        ExperimentTask(key=f"sq/{i}", fn=_square, kwargs={"x": i})
        for i in range(count)
    ]


ONE_RETRY = RetryPolicy(max_retries=1)
NO_RETRY = RetryPolicy(max_retries=0)

TINY_43 = dict(
    targets=("s27", "s298"),
    drivers=("s953",),
    config=BuiltinGenConfig(
        segment_length=40, time_limit=None, rng_seed=2,
        q_limit=1, r_limit=2, max_sequences=2,
    ),
    n_sequences=2,
    func_length=30,
)


class TestInjectedFaults:
    def test_worker_crash_once_recovers_identically(self):
        clean = run_tasks(_tasks(), jobs=2, policy=RetryPolicy())
        faultpoints.install("runner.task:sq/1:crash_once")
        obs.enable()
        injected = run_tasks(_tasks(), jobs=2, policy=RetryPolicy())
        assert injected == clean == [0, 1, 4, 9]
        counters = obs.registry().counters
        assert counters["runner.worker_crashes"] == 1
        assert counters["runner.worker_respawns"] >= 1
        assert counters["runner.retries"] == 1
        assert counters["runner.tasks_completed"] == 4

    def test_hang_killed_by_watchdog_then_retried(self):
        timed = RetryPolicy(timeout_s=0.5)
        clean = run_tasks(_tasks(), jobs=2, policy=timed)
        faultpoints.install("runner.task:sq/2:hang_once")
        obs.enable()
        injected = run_tasks(_tasks(), jobs=2, policy=timed)
        assert injected == clean == [0, 1, 4, 9]
        counters = obs.registry().counters
        assert counters["runner.timeouts"] == 1
        assert counters["runner.retries"] == 1

    def test_flaky_then_succeed(self):
        faultpoints.install("runner.task:sq/3:flaky2")
        obs.enable()
        out = run_tasks(_tasks(), jobs=2, policy=RetryPolicy())
        assert out == [0, 1, 4, 9]
        assert obs.registry().counters["runner.retries"] == 2

    def test_flaky_then_succeed_inline_matches_pool(self):
        faultpoints.install("runner.task:sq/3:flaky2")
        inline = run_tasks(_tasks(), jobs=1, policy=RetryPolicy())
        pooled = run_tasks(_tasks(), jobs=2, policy=RetryPolicy())
        assert inline == pooled == [0, 1, 4, 9]


class TestDegradation:
    def test_exhausted_retries_degrade_to_typed_failure(self):
        faultpoints.install("runner.task:sq/1:error")
        obs.enable()
        out = run_tasks(_tasks(), jobs=2, policy=ONE_RETRY)
        assert out[0] == 0 and out[2] == 4 and out[3] == 9
        failure = out[1]
        assert isinstance(failure, TaskFailure)
        assert failure.key == "sq/1"
        assert failure.kind == "error"
        assert failure.attempts == 2
        assert "InjectedFault" in failure.message
        assert obs.registry().counters["runner.task_failures"] == 1

    def test_inline_degrades_the_same_way(self):
        faultpoints.install("runner.task:sq/1:error")
        out = run_tasks(_tasks(), jobs=1, policy=ONE_RETRY)
        assert isinstance(out[1], TaskFailure)
        assert out[1].attempts == 2
        assert [r for i, r in enumerate(out) if i != 1] == [0, 4, 9]

    def test_crashing_worker_exhausts_to_crash_failure(self):
        faultpoints.install("runner.task:sq/0:crash")
        out = run_tasks(_tasks(), jobs=2, policy=ONE_RETRY)
        failure = out[0]
        assert isinstance(failure, TaskFailure)
        assert failure.kind == "crash"
        assert out[1:] == [1, 4, 9]


class TestTableCampaigns:
    def test_table_4_3_crash_once_byte_identical(self):
        """A crashed-and-retried row reproduces the uninjected table exactly."""
        clean = render_table_4_3(run_table_4_3(jobs=1, **TINY_43))
        faultpoints.install("runner.task:s27:crash_once")
        injected = render_table_4_3(
            run_table_4_3(jobs=2, policy=RetryPolicy(), **TINY_43)
        )
        assert injected == clean

    def test_table_4_3_failed_row_renders_degraded(self):
        faultpoints.install("runner.task:s27:error")
        cases = run_table_4_3(jobs=1, policy=NO_RETRY, **TINY_43)
        assert any(isinstance(c, TaskFailure) for c in cases)
        out = render_table_4_3(cases)
        assert "!! s27: FAILED: error after 1 try" in out
        assert "s298" in out  # the healthy row still renders
