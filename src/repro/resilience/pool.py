"""Self-healing process pool: per-task deadlines, respawn, retry.

``ProcessPoolExecutor.map`` -- the runner's previous pool path -- has
exactly the failure modes a campaign cannot afford: a worker exception
propagates and discards every finished row, a dead worker poisons the
pool (``BrokenProcessPool``), and a hung worker stalls the run forever
because a running future cannot be cancelled.  This module replaces it
with a small scheduler the parent fully controls:

* one dedicated ``Pipe`` per worker, so the parent always knows *which*
  process owns *which* task -- a hung worker can be terminated and its
  task retried without touching the others, and a crashed worker is
  detected for free as EOF on its pipe;
* a **watchdog**: each dispatched task carries a deadline
  (``timeout_s``); the scheduler's wait loop wakes at the earliest one
  and terminates + respawns any overrunning worker;
* **deterministic retry with backoff**: a failed attempt re-enters the
  queue with the same task object (same kwargs, same derived seed) and
  a not-before time from :meth:`repro.resilience.policy.RetryPolicy.
  backoff_s`; after the budget is spent the slot degrades to a
  :class:`repro.resilience.policy.TaskFailure`;
* **fault points**: workers re-arm the parent's
  :mod:`repro.resilience.faultpoints` spec and fire the ``runner.task``
  point around every attempt, which is how the test suite drives real
  crashes, hangs, and flaky schedules through this scheduler.

Results are delivered through an ``on_complete(index, outcome,
snapshot)`` callback in completion order *and* returned as a dict; the
runner re-assembles task order, so ``jobs=N`` output still equals
``jobs=1`` output.  Observability: workers snapshot a fresh registry per
task exactly as the old pool path did; the parent additionally counts
``runner.retries`` / ``runner.timeouts`` / ``runner.worker_crashes`` /
``runner.worker_respawns`` / ``runner.task_failures`` and emits a
``runner.retry`` span per retry decision.

The pool is **persistent**: workers survive across :meth:`SelfHealingPool.
run` calls (each call may carry a fresh task list), so a caller issuing
many small batches -- the sharded fault grader
(:class:`repro.faults.fsim.FaultGrader`) issues one per PPSFP pass --
pays the process spawn cost once.  Call :meth:`SelfHealingPool.close`
(or use the pool as a context manager) when done; an exception escaping
``run`` closes the pool so no orphan workers linger.

Callers normally reach this pool through the execution plane
(:class:`repro.exec.localpool.LocalPoolExecutor`, picked by ``--jobs``
or ``--shards`` above 1) rather than directly.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as conn_wait
from typing import Any, Callable, Sequence

from repro import obs
from repro.resilience import faultpoints
from repro.resilience.deadline import clear_task_deadline, set_task_deadline
from repro.resilience.policy import (
    KIND_CRASH,
    KIND_ERROR,
    KIND_TIMEOUT,
    RetryPolicy,
    TaskFailure,
)

#: How long to wait for a worker to exit after the shutdown sentinel.
_JOIN_TIMEOUT_S = 2.0


def attempt_reply(
    index: int, task: Any, attempt: int, collect: bool
) -> tuple[int, str, Any, dict | None]:
    """One task attempt in this process, shaped as a worker reply tuple.

    Returns ``(index, "ok", result, snapshot|None)`` on success or
    ``(index, "error", message, None)`` on an exception the worker
    survives.  The attempt body -- cooperative deadline, per-task obs
    registry + ``runner.task`` span when ``collect``, the ``runner.task``
    fault point with hard-death ``crash`` semantics -- runs in the pool
    workers (:func:`_worker_main`).  A hard crash (``os._exit`` via an
    armed fault point, a segfault, the OOM killer) never returns; the
    parent sees EOF on the connection instead.
    """
    set_task_deadline(task.timeout_s)
    try:
        if collect:
            obs.reset()
            obs.enable()
            with obs.span("runner.task", key=task.key, attempt=attempt):
                faultpoints.check("runner.task", task.key, attempt, in_worker=True)
                result = task.fn(**dict(task.kwargs))
            return (index, "ok", result, obs.snapshot())
        faultpoints.check("runner.task", task.key, attempt, in_worker=True)
        return (index, "ok", task.fn(**dict(task.kwargs)), None)
    except Exception as exc:  # degrade, never kill the worker loop
        return (index, "error", f"{type(exc).__name__}: {exc}", None)
    finally:
        clear_task_deadline()


def _worker_main(conn: Connection, collect: bool, fault_spec: str | None) -> None:
    """Worker loop: receive ``(index, task, attempt)``, send back the outcome.

    Replies are :func:`attempt_reply` tuples.  A hard crash sends
    nothing; the parent sees EOF on the pipe instead.
    """
    faultpoints.install(fault_spec)
    try:
        while True:
            try:
                item = conn.recv()
            except EOFError:
                return
            if item is None:
                return
            index, task, attempt = item
            conn.send(attempt_reply(index, task, attempt, collect))
    finally:
        conn.close()


@dataclass
class _Slot:
    """One worker seat: its process, pipe, and what it is running."""

    proc: mp.process.BaseProcess
    conn: Connection
    busy_index: int | None = None
    attempt: int = 0
    deadline: float | None = None
    timeout_s: float | None = None


@dataclass
class _Queued:
    """A schedulable attempt; ``ready_at`` implements retry backoff."""

    index: int
    attempt: int = 0
    ready_at: float = 0.0


class SelfHealingPool:
    """Run experiment tasks across respawnable workers (see module docstring)."""

    def __init__(
        self,
        tasks: Sequence[Any] = (),
        n_workers: int = 1,
        policy: RetryPolicy | None = None,
        collect: bool = False,
    ) -> None:
        """A pool of up to ``n_workers`` respawnable task workers.

        ``tasks`` may be empty at construction and supplied per
        :meth:`run` call instead.  ``collect`` makes every worker ship an
        obs snapshot per task back to the parent.
        """
        self.tasks = list(tasks)
        self.policy = policy or RetryPolicy()
        self.collect = collect
        self._ctx = mp.get_context()
        self._fault_spec = faultpoints.active_spec()
        self._n_workers = n_workers
        self._slots: list[_Slot] = []
        self._results: dict[int, Any] = {}
        self._queue: list[_Queued] = []
        self._started: dict[int, float] = {}
        self._on_complete: Callable[[int, Any, dict | None], None] | None = None

    def __enter__(self) -> "SelfHealingPool":
        """Context-manager entry; :meth:`close` runs on exit."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close the pool on context exit."""
        self.close()

    # ------------------------------------------------------------------
    def run(
        self,
        indices: Sequence[int],
        on_complete: Callable[[int, Any, dict | None], None],
        tasks: Sequence[Any] | None = None,
    ) -> dict[int, Any]:
        """Execute the tasks at ``indices``; returns index -> outcome.

        An outcome is the task's return value or a :class:`TaskFailure`.
        ``on_complete`` fires once per resolved index, in completion
        order, with the worker's obs snapshot when collection is on.

        ``tasks`` replaces the pool's task list for this call.  Workers
        stay alive afterwards for the next ``run``; an escaping exception
        closes the pool.
        """
        if tasks is not None:
            self.tasks = list(tasks)
        indices = list(indices)
        self._on_complete = on_complete
        self._results = {}
        self._started = {}
        self._queue = [_Queued(index=i) for i in indices]
        while len(self._slots) < min(self._n_workers, len(self._queue)):
            self._slots.append(self._spawn())
        slots = self._slots
        try:
            while len(self._results) < len(indices):
                now = time.monotonic()
                self._dispatch(slots, now)
                self._await_events(slots)
        except BaseException:
            self.close()
            raise
        return self._results

    # ------------------------------------------------------------------
    def _spawn(self) -> _Slot:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.collect, self._fault_spec),
            daemon=True,
        )
        proc.start()
        child_conn.close()  # parent keeps one end; EOF now detects worker death
        return _Slot(proc=proc, conn=parent_conn)

    def _respawn(self, slots: list[_Slot], slot: _Slot) -> None:
        slot.conn.close()
        if slot.proc.is_alive():
            slot.proc.terminate()
        slot.proc.join(_JOIN_TIMEOUT_S)
        slots[slots.index(slot)] = self._spawn()
        obs.count("runner.worker_respawns")

    def _dispatch(self, slots: list[_Slot], now: float) -> None:
        for slot in slots:
            if slot.busy_index is not None:
                continue
            item = self._pop_ready(now)
            if item is None:
                return
            task = self.tasks[item.index]
            try:
                slot.conn.send((item.index, task, item.attempt))
            except (OSError, ValueError):
                # The worker died while idle; heal the seat and requeue.
                self._queue.insert(0, item)
                self._respawn(slots, slot)
                continue
            timeout = self.policy.effective_timeout(task.timeout_s)
            slot.busy_index = item.index
            slot.attempt = item.attempt
            slot.timeout_s = timeout
            slot.deadline = (now + timeout) if timeout else None
            self._started.setdefault(item.index, now)

    def _pop_ready(self, now: float) -> _Queued | None:
        for i, item in enumerate(self._queue):
            if item.ready_at <= now:
                return self._queue.pop(i)
        return None

    # ------------------------------------------------------------------
    def _await_events(self, slots: list[_Slot]) -> None:
        """Block until a result, a worker death, a deadline, or a backoff expiry."""
        now = time.monotonic()
        busy = [s for s in slots if s.busy_index is not None]
        horizons = [s.deadline for s in busy if s.deadline is not None]
        horizons += [q.ready_at for q in self._queue if q.ready_at > now]
        timeout = max(0.0, min(horizons) - now) if horizons else None
        if not busy:
            if timeout:
                time.sleep(min(timeout, 0.2))
            return
        for conn in conn_wait([s.conn for s in busy], timeout):
            slot = next(s for s in busy if s.conn is conn)
            try:
                index, status, payload, snapshot = conn.recv()
            except (EOFError, OSError):
                self._worker_died(slots, slot)
                continue
            slot.busy_index = None
            slot.deadline = None
            if status == "ok":
                self._complete(index, payload, snapshot)
            else:
                self._retry_or_fail(index, slot.attempt, KIND_ERROR, payload)
        self._sweep_deadlines(slots)

    def _sweep_deadlines(self, slots: list[_Slot]) -> None:
        now = time.monotonic()
        for slot in list(slots):
            if slot.busy_index is None or slot.deadline is None or now <= slot.deadline:
                continue
            if slot.conn.poll(0):  # finished just as the deadline passed
                continue
            index, attempt, timeout = slot.busy_index, slot.attempt, slot.timeout_s
            self._respawn(slots, slot)
            obs.count("runner.timeouts")
            self._retry_or_fail(
                index, attempt, KIND_TIMEOUT, f"exceeded timeout_s={timeout:g}"
            )

    def _worker_died(self, slots: list[_Slot], slot: _Slot) -> None:
        index, attempt = slot.busy_index, slot.attempt
        self._respawn(slots, slot)
        obs.count("runner.worker_crashes")
        if index is not None:
            self._retry_or_fail(
                index, attempt, KIND_CRASH, "worker process died without a reply"
            )

    # ------------------------------------------------------------------
    def _retry_or_fail(self, index: int, attempt: int, kind: str, message: str) -> None:
        task = self.tasks[index]
        budget = self.policy.effective_retries(task.max_retries)
        if attempt < budget:
            obs.count("runner.retries")
            with obs.span(
                "runner.retry", key=task.key, attempt=attempt + 1, cause=kind
            ):
                pass
            self._queue.append(
                _Queued(
                    index=index,
                    attempt=attempt + 1,
                    ready_at=time.monotonic() + self.policy.backoff_s(attempt),
                )
            )
            return
        elapsed = time.monotonic() - self._started.get(index, time.monotonic())
        failure = TaskFailure(
            key=task.key,
            kind=kind,
            message=message,
            attempts=attempt + 1,
            elapsed_s=round(elapsed, 3),
        )
        obs.count("runner.task_failures")
        self._complete(index, failure, None)

    def _complete(self, index: int, outcome: Any, snapshot: dict | None) -> None:
        self._results[index] = outcome
        if self._on_complete is not None:
            self._on_complete(index, outcome, snapshot)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut every worker down (idempotent; a later ``run`` respawns)."""
        slots, self._slots = self._slots, []
        for slot in slots:
            try:
                slot.conn.send(None)
            except (OSError, ValueError):
                pass
        for slot in slots:
            slot.proc.join(_JOIN_TIMEOUT_S)
            if slot.proc.is_alive():
                slot.proc.terminate()
                slot.proc.join(_JOIN_TIMEOUT_S)
            slot.conn.close()
