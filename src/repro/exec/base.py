"""Executor core: submit/drain contract, futures, and dispatch metrics.

An :class:`Executor` is the one unit-of-work plane every campaign
dispatcher in the repo rides on.  The contract, which the conformance
suite (``tests/test_executor_contract.py``) pins for every backend:

* :meth:`Executor.submit` accepts one task -- any object shaped like
  :class:`repro.experiments.runner.ExperimentTask` (``key`` / ``fn`` /
  ``kwargs`` / ``timeout_s`` / ``max_retries``) -- and returns a
  :class:`TaskFuture` immediately; nothing runs yet.
* :meth:`Executor.drain` runs everything submitted since the last drain
  and returns the outcomes **in submission order**, regardless of the
  order attempts actually complete in.  ``jobs=N`` output therefore
  equals ``jobs=1`` output byte-for-byte for deterministic tasks.
* A task that exhausts its retry budget degrades to a typed
  :class:`repro.resilience.policy.TaskFailure` in its slot; an executor
  never raises because a *task* failed.
* An optional ``on_complete(slot, outcome, snapshot)`` callback fires
  once per task in **completion** order, carrying the worker's obs
  snapshot when the backend ships one (``ships_snapshots``), so callers
  can journal checkpoints and merge metrics incrementally.

Observability (surfaced under the "execution plane" section of the
``--stats`` report): ``executor.submitted`` / ``executor.degraded``
counters, an ``executor.queue_depth`` gauge tracking outstanding work,
``executor.submit`` / ``executor.result`` spans, and a per-backend
``executor.<kind>.dispatch_ms`` histogram measuring submit-to-result
latency.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

from repro import obs
from repro.resilience.policy import RetryPolicy, TaskFailure

#: Sentinel marking a future whose outcome has not been resolved yet.
_PENDING = object()


class TaskFuture:
    """Handle for one submitted task; resolved during :meth:`Executor.drain`."""

    __slots__ = ("task", "_outcome")

    def __init__(self, task: Any) -> None:
        """A pending future for ``task``."""
        self.task = task
        self._outcome: Any = _PENDING

    def done(self) -> bool:
        """Whether the outcome has been resolved."""
        return self._outcome is not _PENDING

    def result(self) -> Any:
        """The outcome: the task's return value or a ``TaskFailure``.

        Raises ``RuntimeError`` if the executor has not drained yet --
        futures never block; :meth:`Executor.drain` is the only thing
        that resolves them.
        """
        if self._outcome is _PENDING:
            raise RuntimeError(
                f"task {getattr(self.task, 'key', self.task)!r} is still "
                "pending; call Executor.drain() first"
            )
        return self._outcome

    def _resolve(self, outcome: Any) -> None:
        self._outcome = outcome


class Executor:
    """Abstract dispatch backend (see module docstring for the contract).

    Subclasses implement :meth:`_execute` and declare three class
    attributes: ``kind`` (the backend name), ``ships_snapshots``
    (whether outcomes arrive with a worker obs snapshot to merge), and
    ``daemon_safe`` (whether the backend may be used from inside a
    daemonic pool worker, which cannot spawn child processes).

    Executors are reusable -- ``submit``/``drain`` cycles may repeat --
    and are context managers; :meth:`close` releases any worker
    processes.
    """

    kind: str = "abstract"
    ships_snapshots: bool = False
    daemon_safe: bool = False

    def __init__(self, policy: RetryPolicy | None = None) -> None:
        """An executor applying ``policy`` retry/deadline defaults.

        Per-task ``timeout_s`` / ``max_retries`` still override the
        policy, exactly as in :func:`repro.experiments.runner.run_tasks`.
        """
        self.policy = policy or RetryPolicy()
        self._futures: list[TaskFuture] = []
        self._submitted_at: list[float] = []

    # ------------------------------------------------------------------
    def submit(self, task: Any) -> TaskFuture:
        """Enqueue one task; returns its future without running anything."""
        future = TaskFuture(task)
        self._futures.append(future)
        self._submitted_at.append(time.perf_counter())
        if obs.enabled():
            obs.count("executor.submitted")
            obs.gauge("executor.queue_depth", len(self._futures))
            with obs.span(
                "executor.submit", backend=self.kind, key=getattr(task, "key", "?")
            ):
                pass
        return future

    def drain(
        self,
        on_complete: Callable[[int, Any, dict | None], None] | None = None,
    ) -> list[Any]:
        """Run all submitted tasks; outcomes return in submission order.

        ``on_complete(slot, outcome, snapshot)`` fires per task in
        completion order (``slot`` is the submission index); ``snapshot``
        is the worker's obs registry dump for backends that ship one,
        else ``None``.  The returned list holds task return values with
        :class:`TaskFailure` in the slots that exhausted their retries.
        """
        futures, self._futures = self._futures, []
        submitted_at, self._submitted_at = self._submitted_at, []
        if not futures:
            return []
        tasks = [f.task for f in futures]
        outstanding = len(futures)

        def emit(slot: int, outcome: Any, snapshot: dict | None) -> None:
            nonlocal outstanding
            futures[slot]._resolve(outcome)
            outstanding -= 1
            if obs.enabled():
                obs.observe(
                    f"executor.{self.kind}.dispatch_ms",
                    1000.0 * (time.perf_counter() - submitted_at[slot]),
                )
                obs.gauge("executor.queue_depth", outstanding)
                failed = isinstance(outcome, TaskFailure)
                if failed:
                    obs.count("executor.degraded")
                with obs.span(
                    "executor.result",
                    backend=self.kind,
                    key=getattr(tasks[slot], "key", "?"),
                    failed=failed,
                ):
                    pass
            if on_complete is not None:
                on_complete(slot, outcome, snapshot)

        try:
            self._execute(tasks, emit)
        except BaseException:
            # A raising drain (backend bug, on_complete callback error,
            # KeyboardInterrupt) must still release the workers -- a
            # failed campaign cannot be allowed to leak them into the
            # next run or test.
            self.close()
            raise
        return [f.result() for f in futures]

    # ------------------------------------------------------------------
    def _execute(
        self,
        tasks: Sequence[Any],
        emit: Callable[[int, Any, dict | None], None],
    ) -> None:
        """Backend hook: run ``tasks``, calling ``emit`` once per slot."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (idempotent; default is a no-op)."""

    def __enter__(self) -> "Executor":
        """Context-manager entry; :meth:`close` runs on exit."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close the executor on context exit."""
        self.close()
