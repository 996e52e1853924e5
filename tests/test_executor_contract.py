"""Placement conformance suite: inline and pooled tasks honor one contract.

Parametrized over ``jobs`` in (1, 2) -- tasks in the calling process and
on the self-healing worker pool -- these tests pin the contract that
makes ``--jobs`` and ``--shards`` pure wall-clock knobs:

* :meth:`repro.resilience.pool.SelfHealingPool.run` returns results in
  task order no matter which order tasks finish in;
* every task runs once: a task that raises, or whose worker dies,
  degrades to a typed :class:`TaskFailure` row instead of raising, while
  the other rows complete;
* a task that overruns ``timeout_s`` fails as a ``timeout`` row -- never
  a shorter result -- at ``jobs=1`` as at ``jobs=2``, while the other
  rows complete.
"""

import os
import time

import pytest

from repro import obs
from repro.experiments.runner import ExperimentTask, run_tasks
from repro.resilience.pool import SelfHealingPool, TaskFailure

#: ``jobs`` of each placement: in the calling process, then on the pool.
PLACEMENTS = pytest.mark.parametrize("jobs", (1, 2), ids=("inprocess", "pool"))


@pytest.fixture(autouse=True)
def _clean_state():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _square(x):
    return x * x


def _sleepy(i, delay):
    time.sleep(delay)
    return i


def _square_but_1_raises(x):
    if x == 1:
        raise ValueError("no square for 1")
    return x * x


def _square_but_1_exits(x):
    if x == 1:
        os._exit(3)  # the worker dies without a reply, like a segfault
    return x * x


def _tasks(fn=_square, count=4):
    return [ExperimentTask(key=f"sq/{i}", fn=fn, kwargs={"x": i}) for i in range(count)]


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

        with SelfHealingPool(n_workers=jobs) as pool:
            results = pool.run(tasks, on_complete)
        assert results == [0, 1, 2, 3]
        assert sorted(completion_slots) == [0, 1, 2, 3]
        if jobs > 1:
            assert completion_slots != [0, 1, 2, 3]


class TestDegradation:
    @PLACEMENTS
    def test_raising_task_degrades_to_typed_failure(self, jobs):
        obs.enable()
        out = run_tasks(_tasks(_square_but_1_raises), jobs=jobs)
        assert out[0] == 0 and out[2] == 4 and out[3] == 9
        assert out[1] == TaskFailure(
            key="sq/1", kind="error", message="ValueError: no square for 1"
        )
        assert obs.registry().counters["runner.task_failures"] == 1

    def test_dead_worker_degrades_to_crash_failure(self):
        obs.enable()
        out = run_tasks(_tasks(_square_but_1_exits), jobs=2)
        assert isinstance(out[1], TaskFailure)
        assert (out[1].key, out[1].kind) == ("sq/1", "crash")
        assert [out[0], *out[2:]] == [0, 4, 9]
        counters = obs.registry().counters
        assert counters["runner.worker_crashes"] == 1
        assert counters["runner.tasks_completed"] == 3


class TestDeadline:
    @pytest.mark.parametrize("jobs", (1, 2))
    def test_overrun_fails_the_row(self, jobs):
        """The watchdog kills the overrunning row in both placements."""
        tasks = [
            ExperimentTask(key="slow", fn=_sleepy, kwargs={"i": 0, "delay": 5.0}),
            ExperimentTask(key="quick", fn=_square, kwargs={"x": 3}),
        ]
        t0 = time.monotonic()
        out = run_tasks(tasks, jobs=jobs, timeout_s=0.5)
        assert time.monotonic() - t0 < 5.0
        failure, quick = out
        assert isinstance(failure, TaskFailure)
        assert (failure.key, failure.kind) == ("slow", "timeout")
        assert quick == 9
