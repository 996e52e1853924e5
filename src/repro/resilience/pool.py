"""Self-healing task scheduler: every task runs once, inline or on a worker.

Every embarrassingly parallel campaign in the repo -- the Chapter 4
table rows (:func:`repro.experiments.runner.run_tasks`) and the sharded
PPSFP grading passes (:class:`repro.faults.fsim.FaultGrader`) -- runs
through :class:`SelfHealingPool`.  ``run(tasks)`` returns one outcome per
task **in task order**, whatever order the tasks complete in, so
``jobs=N`` output equals ``jobs=1`` output and ``--jobs`` / ``--shards``
are pure wall-clock knobs.

Where tasks run is picked by :func:`runs_inline`:

* one seat (``n_workers <= 1``) and no ``timeout_s`` -- in the calling
  process, one after another: no pickling, and metrics land directly in
  the live obs registry;
* otherwise -- on at least one respawnable worker process with one
  dedicated ``Pipe`` each, so the parent always knows *which* process
  owns *which* task.  A crashed worker is detected for free as EOF on
  its pipe, and a **watchdog** terminates and respawns any worker that
  overruns ``timeout_s`` without touching the others.  The watchdog is
  the only enforcement of a deadline: a timed campaign runs on a worker
  even at ``--jobs 1``, so an overrunning row fails as a ``timeout`` in
  every placement instead of finishing short.
  (``ProcessPoolExecutor.map``, the runner's original pool path, loses
  every finished row to one worker exception, is poisoned by one dead
  worker, and stalls forever on a hung one.)

Each task runs once, under a ``runner.task`` span.  A task that raises,
whose worker dies, or that the watchdog kills takes a
:class:`TaskFailure` in its slot and the others carry on.  A task is a
pure function of its kwargs, so running it again fails the same way:
rerunning the campaign is the only retry.

``on_complete(index, outcome, snapshot)`` fires once per task in
completion order.  With ``collect`` on, each worker task runs against a
fresh registry whose snapshot travels with the reply; inline there is
nothing to ship.  The scheduler counts ``runner.timeouts`` /
``runner.worker_crashes`` / ``runner.worker_respawns`` /
``runner.task_failures``.

Workers are **persistent**: they survive across :meth:`SelfHealingPool.
run` calls, so a caller issuing many small batches -- the sharded fault
grader issues one per PPSFP pass -- pays the process spawn cost once.
Call :meth:`SelfHealingPool.close` (or use the pool as a context
manager) when done; an exception escaping ``run`` closes the pool so no
orphan workers linger.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

#: How long to wait for a worker to exit after the shutdown sentinel.
_JOIN_TIMEOUT_S = 2.0

#: Failure kinds recorded on :class:`TaskFailure`.
KIND_CRASH = "crash"
KIND_TIMEOUT = "timeout"
KIND_ERROR = "error"


@dataclass(frozen=True)
class ExperimentTask:
    """One unit of campaign work.

    ``fn`` must be a module-level function and ``kwargs`` picklable -- the
    requirements of pooled tasks.  ``key`` names the task for
    diagnostics, progress lines, experiment-database rows and
    merged-trace attribution.
    """

    key: str
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class TaskFailure:
    """A task that failed; takes its result's slot in the list.

    ``kind`` is ``crash`` (its worker died), ``timeout`` (the watchdog
    killed it) or ``error`` (it raised); ``message`` carries the error
    text for diagnostics.
    """

    key: str
    kind: str
    message: str

    def describe(self) -> str:
        """The table annotation, e.g. ``FAILED: timeout``."""
        return f"FAILED: {self.kind}"


def runs_inline(n_workers: int, timeout_s: float | None) -> bool:
    """Whether a pool of ``n_workers`` seats runs tasks in this process.

    Only with one seat and no ``timeout_s``: a deadline needs a worker
    process the watchdog can kill.
    """
    return n_workers <= 1 and timeout_s is None


def _run_task(task: ExperimentTask) -> tuple[str, Any]:
    """Run ``task`` here: ``("ok", value)`` or ``("error", text)``."""
    try:
        with obs.span("runner.task", key=task.key):
            return ("ok", task.fn(**dict(task.kwargs)))
    except Exception as exc:  # degrade, never kill the caller or worker loop
        return ("error", f"{type(exc).__name__}: {exc}")


def _worker_main(conn: Connection, collect: bool) -> None:
    """Worker loop: receive ``(index, task)``, reply.

    Replies are ``(index, status, payload, snapshot|None)``; ``snapshot``
    is the task's fresh obs registry when ``collect`` is on and the task
    succeeded.
    """
    try:
        while True:
            try:
                item = conn.recv()
            except EOFError:
                return
            if item is None:
                return
            index, task = item
            if collect:
                obs.reset()
                obs.enable()
            status, payload = _run_task(task)
            snapshot = obs.snapshot() if collect and status == "ok" else None
            conn.send((index, status, payload, snapshot))
    finally:
        conn.close()


@dataclass
class _Slot:
    """One worker seat: its process, pipe, and what it is running."""

    proc: BaseProcess
    conn: Connection
    busy_index: int | None = None
    deadline: float | None = None


class SelfHealingPool:
    """Run tasks inline or across respawnable workers (see module docstring)."""

    def __init__(
        self,
        n_workers: int = 1,
        timeout_s: float | None = None,
        collect: bool = False,
    ) -> None:
        """A scheduler for up to ``n_workers`` concurrent tasks.

        Tasks run in the calling process when :func:`runs_inline` says
        so; otherwise workers (at least one) are spawned on the first
        :meth:`run` that needs them.  ``timeout_s`` is every task's
        deadline (``None``: unbounded).  ``collect`` makes every worker
        ship an obs snapshot per task back to the parent.
        """
        self.timeout_s = timeout_s
        self.collect = collect
        self._n_workers = n_workers
        self._slots: list[_Slot] = []
        self._tasks: list[ExperimentTask] = []
        self._results: list[Any] = []
        self._unresolved = 0
        self._queue: list[int] = []
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
        """Run every task once; returns the outcomes in task order.

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
        self._queue = list(range(len(self._tasks)))
        try:
            if runs_inline(self._n_workers, self.timeout_s):
                for index, task in enumerate(self._tasks):
                    status, payload = _run_task(task)
                    self._resolve(index, status, payload, None)
            else:
                seats = min(max(self._n_workers, 1), len(self._tasks))
                while len(self._slots) < seats:
                    self._slots.append(self._spawn())
                while self._unresolved:
                    self._dispatch()
                    self._await_events()
        except BaseException:
            self.close()
            raise
        return self._results

    # ------------------------------------------------------------------
    def _spawn(self) -> _Slot:
        # Imported here, like ``wait`` below: inline runs, and tables that
        # only check results for a TaskFailure, never need multiprocessing,
        # and importing it costs a run about 10 ms.
        import multiprocessing as mp

        parent_conn, child_conn = mp.Pipe()
        proc = mp.Process(
            target=_worker_main, args=(child_conn, self.collect), daemon=True
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

    def _dispatch(self) -> None:
        """Hand queued tasks to idle seats, each with its deadline."""
        for slot in self._slots:
            if slot.busy_index is not None or not self._queue:
                continue
            index = self._queue.pop(0)
            try:
                slot.conn.send((index, self._tasks[index]))
            except (OSError, ValueError):
                # The worker died while idle; heal the seat and requeue.
                self._queue.insert(0, index)
                self._respawn(slot)
                continue
            slot.busy_index = index
            if self.timeout_s is not None:
                slot.deadline = time.monotonic() + self.timeout_s

    # ------------------------------------------------------------------
    def _await_events(self) -> None:
        """Block until a reply, a worker death, or the nearest deadline."""
        from multiprocessing.connection import wait

        busy = [s for s in self._slots if s.busy_index is not None]
        if not busy:  # every idle seat was just respawned: dispatch again
            return
        deadlines = [s.deadline for s in busy if s.deadline is not None]
        timeout = max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
        for conn in wait([s.conn for s in busy], timeout):
            slot = next(s for s in busy if s.conn is conn)
            try:
                index, status, payload, snapshot = conn.recv()
            except (EOFError, OSError):
                self._worker_died(slot)
                continue
            slot.busy_index = None
            slot.deadline = None
            self._resolve(index, status, payload, snapshot)
        self._sweep_deadlines()

    def _sweep_deadlines(self) -> None:
        now = time.monotonic()
        for slot in list(self._slots):
            if slot.deadline is None or now <= slot.deadline:
                continue
            if slot.conn.poll(0):  # finished just as the deadline passed
                continue
            index = slot.busy_index
            self._respawn(slot)
            obs.count("runner.timeouts")
            self._fail(index, KIND_TIMEOUT, f"exceeded timeout_s={self.timeout_s:g}")

    def _worker_died(self, slot: _Slot) -> None:
        index = slot.busy_index
        self._respawn(slot)
        obs.count("runner.worker_crashes")
        self._fail(index, KIND_CRASH, "worker process died without a reply")

    # ------------------------------------------------------------------
    def _resolve(self, index: int, status: str, payload: Any, snapshot: dict | None) -> None:
        """Complete a task from its ``("ok", value)`` or ``("error", text)``."""
        if status == "ok":
            self._complete(index, payload, snapshot)
        else:
            self._fail(index, KIND_ERROR, payload)

    def _fail(self, index: int, kind: str, message: str) -> None:
        obs.count("runner.task_failures")
        self._complete(index, TaskFailure(self._tasks[index].key, kind, message), None)

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
