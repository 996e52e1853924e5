"""Serial in-process executor: the zero-overhead reference backend.

Tasks run one after another in the calling process -- no pool, no
pickling -- under exactly the retry/degradation contract of the pool
backend: the ``runner.task`` span and fault point fire per
attempt, the per-attempt deadline is published cooperatively
(:mod:`repro.resilience.deadline`; nothing can preempt an attempt
without a worker process to kill), failures retry under the policy's
deterministic backoff with a ``runner.retry`` span, and an exhausted
budget degrades to :class:`repro.resilience.policy.TaskFailure`.

The pool backend is asserted byte-identical to this one by the
conformance suite, which is what makes ``--jobs`` and ``--shards`` pure
wall-clock knobs.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

from repro import obs
from repro.exec.base import Executor
from repro.resilience import faultpoints
from repro.resilience.deadline import clear_task_deadline, set_task_deadline
from repro.resilience.policy import KIND_ERROR, TaskFailure


class InProcessExecutor(Executor):
    """Run tasks serially in the calling process (see module docstring)."""

    kind = "inprocess"
    ships_snapshots = False  # metrics land directly in the live registry
    daemon_safe = True

    def _execute(
        self,
        tasks: Sequence[Any],
        emit: Callable[[int, Any, dict | None], None],
    ) -> None:
        """Run each task to completion (or degradation) in submission order."""
        for slot, task in enumerate(tasks):
            emit(slot, self._run_one(task), None)

    def _run_one(self, task: Any) -> Any:
        started = time.monotonic()
        attempt = 0
        while True:
            set_task_deadline(self.policy.effective_timeout(task.timeout_s))
            try:
                with obs.span("runner.task", key=task.key, attempt=attempt):
                    faultpoints.check("runner.task", task.key, attempt)
                    value = task.fn(**dict(task.kwargs))
            except Exception as exc:
                clear_task_deadline()
                if attempt >= self.policy.effective_retries(task.max_retries):
                    obs.count("runner.task_failures")
                    return TaskFailure(
                        key=task.key,
                        kind=KIND_ERROR,
                        message=f"{type(exc).__name__}: {exc}",
                        attempts=attempt + 1,
                        elapsed_s=round(time.monotonic() - started, 3),
                    )
                obs.count("runner.retries")
                with obs.span(
                    "runner.retry", key=task.key, attempt=attempt + 1, cause=KIND_ERROR
                ):
                    time.sleep(self.policy.backoff_s(attempt))
                attempt += 1
                continue
            clear_task_deadline()
            return value
