"""Self-healing task scheduler: one queue, inline or pooled attempts.

Every embarrassingly parallel campaign in the repo -- the Chapter 4
table rows (:func:`repro.experiments.runner.run_tasks`) and the sharded
PPSFP grading passes (:class:`repro.faults.fsim.FaultGrader`) -- runs
through :class:`SelfHealingPool`.  ``run(tasks)`` returns one outcome per
task **in task order**, whatever order the attempts complete in, so
``jobs=N`` output equals ``jobs=1`` output and ``--jobs`` / ``--shards``
are pure wall-clock knobs.

Where attempts run is picked by :func:`runs_inline`:

* one seat (``n_workers <= 1``) and no ``timeout_s`` in the policy -- in
  the calling process, one after another: no pickling, and metrics land
  directly in the live obs registry;
* otherwise -- on at least one respawnable worker process with one
  dedicated ``Pipe`` each, so the parent always knows *which* process
  owns *which* task.  A crashed worker is detected for free as EOF on
  its pipe, and a **watchdog** terminates and respawns any worker that
  overruns the policy's ``timeout_s`` without touching the others.  The
  watchdog is the only enforcement of a deadline: a timed campaign runs
  on a worker even at ``--jobs 1``, so an overrunning row fails as a
  ``timeout`` in every placement instead of finishing short.
  (``ProcessPoolExecutor.map``, the runner's original pool path, loses
  every finished row to one worker exception, is poisoned by one dead
  worker, and stalls forever on a hung one.)

Both placements share one queue, one attempt body and one retry
decision:

* every attempt fires the ``runner.task`` fault point of
  :mod:`repro.resilience.faultpoints` (workers re-arm the spec active
  when they are spawned; in a worker a ``crash`` is a hard ``os._exit``,
  inline it raises);
* **deterministic retry with backoff**: a failed attempt re-enters the
  head of the queue with the same task object (same kwargs, same derived
  seed) and a not-before time from :meth:`repro.resilience.policy.
  RetryPolicy.backoff_s`, so inline a task's retries finish before the
  next task starts; after the policy's ``max_retries`` the slot degrades
  to a :class:`repro.resilience.policy.TaskFailure`.

``on_complete(index, outcome, snapshot)`` fires once per task in
completion order.  With ``collect`` on, each worker attempt runs against
a fresh registry whose snapshot travels with the reply; inline there is
nothing to ship.  The scheduler counts ``runner.retries`` /
``runner.timeouts`` / ``runner.worker_crashes`` /
``runner.worker_respawns`` / ``runner.task_failures`` and emits a
``runner.retry`` span per retry decision.

Workers are **persistent**: they survive across :meth:`SelfHealingPool.
run` calls, so a caller issuing many small batches -- the sharded fault
grader issues one per PPSFP pass -- pays the process spawn cost once.
Call :meth:`SelfHealingPool.close` (or use the pool as a context
manager) when done; an exception escaping ``run`` closes the pool so no
orphan workers linger.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro import obs
from repro.resilience import faultpoints
from repro.resilience.policy import (
    KIND_CRASH,
    KIND_ERROR,
    KIND_TIMEOUT,
    RetryPolicy,
    TaskFailure,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

#: How long to wait for a worker to exit after the shutdown sentinel.
_JOIN_TIMEOUT_S = 2.0


@dataclass(frozen=True)
class ExperimentTask:
    """One unit of campaign work.

    ``fn`` must be a module-level function and ``kwargs`` picklable -- the
    requirements of pooled attempts.  ``key`` names the task for seed
    derivation, diagnostics, progress lines, experiment-database rows,
    fault points, and merged-trace attribution.  Deadline and retry budget are
    the campaign's :class:`repro.resilience.policy.RetryPolicy`.
    """

    key: str
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)


def runs_inline(n_workers: int, policy: RetryPolicy) -> bool:
    """Whether a pool of ``n_workers`` seats runs attempts in this process.

    Only with one seat and no ``timeout_s``: a deadline needs a worker
    process the watchdog can kill.
    """
    return n_workers <= 1 and policy.timeout_s is None


def _attempt(task: ExperimentTask, attempt: int, in_worker: bool) -> tuple[str, Any]:
    """One attempt of ``task`` here: ``("ok", value)`` or ``("error", text)``.

    Opens the ``runner.task`` span and fires the ``runner.task`` fault
    point, whose ``crash`` modes kill the process when ``in_worker`` --
    that never returns; the parent sees EOF on the worker's pipe instead.
    """
    try:
        with obs.span("runner.task", key=task.key, attempt=attempt):
            faultpoints.check("runner.task", task.key, attempt, in_worker=in_worker)
            return ("ok", task.fn(**dict(task.kwargs)))
    except Exception as exc:  # degrade, never kill the caller or worker loop
        return ("error", f"{type(exc).__name__}: {exc}")


def _worker_main(conn: Connection, collect: bool, fault_spec: str | None) -> None:
    """Worker loop: receive ``(index, task, attempt)``, reply.

    Replies are ``(index, status, payload, snapshot|None)``; ``snapshot``
    is the attempt's fresh obs registry when ``collect`` is on and the
    attempt succeeded.
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
            if collect:
                obs.reset()
                obs.enable()
            status, payload = _attempt(task, attempt, in_worker=True)
            snapshot = obs.snapshot() if collect and status == "ok" else None
            conn.send((index, status, payload, snapshot))
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


@dataclass
class _Queued:
    """A schedulable attempt; ``ready_at`` implements retry backoff."""

    index: int
    attempt: int = 0
    ready_at: float = 0.0


class SelfHealingPool:
    """Run tasks inline or across respawnable workers (see module docstring)."""

    def __init__(
        self,
        n_workers: int = 1,
        policy: RetryPolicy | None = None,
        collect: bool = False,
    ) -> None:
        """A scheduler for up to ``n_workers`` concurrent attempts.

        Attempts run in the calling process when :func:`runs_inline`
        says so; otherwise workers (at least one) are spawned on the
        first :meth:`run` that needs them.  ``collect`` makes every
        worker ship an obs snapshot per task back to the parent.
        """
        self.policy = policy or RetryPolicy()
        self.collect = collect
        self._n_workers = n_workers
        self._slots: list[_Slot] = []
        self._tasks: list[ExperimentTask] = []
        self._results: list[Any] = []
        self._unresolved = 0
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
        tasks: Sequence[ExperimentTask],
        on_complete: Callable[[int, Any, dict | None], None] | None = None,
    ) -> list[Any]:
        """Run every task; returns the outcomes in task order.

        An outcome is the task's return value or a :class:`TaskFailure`.
        ``on_complete(index, outcome, snapshot)`` fires once per task in
        completion order, with the worker's obs snapshot when collection
        is on (``None`` inline).  Workers stay alive afterwards for the
        next ``run``; an escaping exception closes the pool.
        """
        self._tasks = list(tasks)
        self._on_complete = on_complete
        self._results = [None] * len(self._tasks)
        self._unresolved = len(self._tasks)
        self._started = {}
        self._queue = [_Queued(index=i) for i in range(len(self._tasks))]
        try:
            if runs_inline(self._n_workers, self.policy):
                while self._queue:
                    self._run_inline(self._queue.pop(0))
            else:
                seats = min(max(self._n_workers, 1), len(self._queue))
                while len(self._slots) < seats:
                    self._slots.append(self._spawn())
                while self._unresolved:
                    self._dispatch(time.monotonic())
                    self._await_events()
        except BaseException:
            self.close()
            raise
        return self._results

    def _run_inline(self, item: _Queued) -> None:
        """One attempt in this process, once its retry backoff has passed."""
        delay = item.ready_at - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        self._started.setdefault(item.index, time.monotonic())
        status, payload = _attempt(
            self._tasks[item.index], item.attempt, in_worker=False
        )
        if status == "ok":
            self._complete(item.index, payload, None)
        else:
            self._retry_or_fail(item.index, item.attempt, KIND_ERROR, payload)

    # ------------------------------------------------------------------
    def _spawn(self) -> _Slot:
        parent_conn, child_conn = mp.Pipe()
        proc = mp.Process(
            target=_worker_main,
            args=(child_conn, self.collect, faultpoints.active_spec()),
            daemon=True,
        )
        proc.start()
        child_conn.close()  # parent keeps one end; EOF now detects worker death
        return _Slot(proc=proc, conn=parent_conn)

    def _respawn(self, slot: _Slot) -> None:
        slot.conn.close()
        if slot.proc.is_alive():
            slot.proc.terminate()
        slot.proc.join(_JOIN_TIMEOUT_S)
        self._slots[self._slots.index(slot)] = self._spawn()
        obs.count("runner.worker_respawns")

    def _dispatch(self, now: float) -> None:
        for slot in self._slots:
            if slot.busy_index is not None:
                continue
            item = self._pop_ready(now)
            if item is None:
                return
            try:
                slot.conn.send((item.index, self._tasks[item.index], item.attempt))
            except (OSError, ValueError):
                # The worker died while idle; heal the seat and requeue.
                self._queue.insert(0, item)
                self._respawn(slot)
                continue
            slot.busy_index = item.index
            slot.attempt = item.attempt
            timeout = self.policy.timeout_s
            slot.deadline = (now + timeout) if timeout else None
            self._started.setdefault(item.index, now)

    def _pop_ready(self, now: float) -> _Queued | None:
        for i, item in enumerate(self._queue):
            if item.ready_at <= now:
                return self._queue.pop(i)
        return None

    # ------------------------------------------------------------------
    def _await_events(self) -> None:
        """Block until a reply, a worker death, a deadline, or a backoff expiry."""
        # Imported here: the inline placement never needs the connection
        # machinery, and importing it costs a table run several ms.
        from multiprocessing.connection import wait

        now = time.monotonic()
        busy = [s for s in self._slots if s.busy_index is not None]
        horizons = [s.deadline for s in busy if s.deadline is not None]
        horizons += [q.ready_at for q in self._queue if q.ready_at > now]
        timeout = max(0.0, min(horizons) - now) if horizons else None
        if not busy:
            if timeout:
                time.sleep(min(timeout, 0.2))
            return
        for conn in wait([s.conn for s in busy], timeout):
            slot = next(s for s in busy if s.conn is conn)
            try:
                index, status, payload, snapshot = conn.recv()
            except (EOFError, OSError):
                self._worker_died(slot)
                continue
            slot.busy_index = None
            slot.deadline = None
            if status == "ok":
                self._complete(index, payload, snapshot)
            else:
                self._retry_or_fail(index, slot.attempt, KIND_ERROR, payload)
        self._sweep_deadlines()

    def _sweep_deadlines(self) -> None:
        now = time.monotonic()
        for slot in list(self._slots):
            if slot.busy_index is None or slot.deadline is None or now <= slot.deadline:
                continue
            if slot.conn.poll(0):  # finished just as the deadline passed
                continue
            index, attempt = slot.busy_index, slot.attempt
            self._respawn(slot)
            obs.count("runner.timeouts")
            self._retry_or_fail(
                index,
                attempt,
                KIND_TIMEOUT,
                f"exceeded timeout_s={self.policy.timeout_s:g}",
            )

    def _worker_died(self, slot: _Slot) -> None:
        index, attempt = slot.busy_index, slot.attempt
        self._respawn(slot)
        obs.count("runner.worker_crashes")
        if index is not None:
            self._retry_or_fail(
                index, attempt, KIND_CRASH, "worker process died without a reply"
            )

    # ------------------------------------------------------------------
    def _retry_or_fail(self, index: int, attempt: int, kind: str, message: str) -> None:
        task = self._tasks[index]
        if attempt < self.policy.max_retries:
            obs.count("runner.retries")
            with obs.span(
                "runner.retry", key=task.key, attempt=attempt + 1, cause=kind
            ):
                pass
            self._queue.insert(
                0,
                _Queued(
                    index=index,
                    attempt=attempt + 1,
                    ready_at=time.monotonic() + self.policy.backoff_s(attempt),
                ),
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
        self._unresolved -= 1
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
