"""Placement conformance suite: inline and pooled attempts honor one contract.

Parametrized over ``jobs`` in (1, 2) -- attempts in the calling process
and on the self-healing worker pool -- these tests pin the contract
that makes ``--jobs`` and ``--shards`` pure wall-clock knobs:

* :meth:`repro.resilience.pool.SelfHealingPool.run` returns results in
  task order no matter which order tasks finish in;
* flaky attempts retry and exhausted retries degrade to typed
  :class:`TaskFailure` rows instead of raising;
* an attempt that overruns the policy's ``timeout_s`` fails as a
  ``timeout`` row -- never a shorter result -- at ``jobs=1`` as at
  ``jobs=2``, while the other rows complete.
"""

import time

import pytest

from repro import obs
from repro.experiments.runner import ExperimentTask, run_tasks
from repro.resilience import faultpoints
from repro.resilience.policy import RetryPolicy, TaskFailure
from repro.resilience.pool import SelfHealingPool

#: ``jobs`` of each placement: in the calling process, then on the pool.
PLACEMENTS = pytest.mark.parametrize("jobs", (1, 2), ids=("inprocess", "pool"))


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


def _sleepy(i, delay):
    time.sleep(delay)
    return i


def _tasks(count=4):
    return [
        ExperimentTask(key=f"sq/{i}", fn=_square, kwargs={"x": i})
        for i in range(count)
    ]


class TestOrdering:
    @PLACEMENTS
    def test_results_in_submission_order(self, jobs):
        # The first task is the slowest: with 2 workers it finishes
        # last, so completion order inverts task order.
        delays = (0.3, 0.0, 0.05, 0.0)
        tasks = [
            ExperimentTask(key=f"slp/{i}", fn=_sleepy, kwargs={"i": i, "delay": d})
            for i, d in enumerate(delays)
        ]
        completion_slots = []

        def on_complete(slot, outcome, snapshot):
            completion_slots.append(slot)

        with SelfHealingPool(n_workers=jobs, policy=RetryPolicy()) as pool:
            results = pool.run(tasks, on_complete)
        assert results == [0, 1, 2, 3]
        assert sorted(completion_slots) == [0, 1, 2, 3]
        if jobs > 1:
            assert completion_slots != [0, 1, 2, 3]


class TestRetryAfterCrash:
    @PLACEMENTS
    def test_flaky_error_retries_everywhere(self, jobs):
        faultpoints.install("runner.task:sq/3:flaky2")
        obs.enable()
        out = run_tasks(_tasks(), jobs=jobs, policy=RetryPolicy())
        assert out == [0, 1, 4, 9]
        assert obs.registry().counters["runner.retries"] == 2


class TestDegradation:
    @PLACEMENTS
    def test_exhausted_retries_degrade_to_typed_failure(self, jobs):
        faultpoints.install("runner.task:sq/1:error")
        obs.enable()
        out = run_tasks(_tasks(), jobs=jobs, policy=RetryPolicy(max_retries=1))
        assert out[0] == 0 and out[2] == 4 and out[3] == 9
        failure = out[1]
        assert isinstance(failure, TaskFailure)
        assert failure.key == "sq/1"
        assert failure.kind == "error"
        assert failure.attempts == 2
        assert obs.registry().counters["runner.task_failures"] == 1


class TestDeadline:
    @pytest.mark.parametrize("jobs", (1, 2))
    def test_overrun_fails_the_row(self, jobs):
        """The watchdog kills the overrunning row in both placements."""
        tasks = [
            ExperimentTask(key="slow", fn=_sleepy, kwargs={"i": 0, "delay": 5.0}),
            ExperimentTask(key="quick", fn=_square, kwargs={"x": 3}),
        ]
        t0 = time.monotonic()
        out = run_tasks(
            tasks, jobs=jobs, policy=RetryPolicy(timeout_s=0.5, max_retries=0)
        )
        assert time.monotonic() - t0 < 5.0
        failure, quick = out
        assert isinstance(failure, TaskFailure)
        assert (failure.key, failure.kind, failure.attempts) == ("slow", "timeout", 1)
        assert quick == 9
