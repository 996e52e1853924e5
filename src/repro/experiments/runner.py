"""Parallel experiment runner: deterministic fan-out of table rows.

The Chapter 4 experiment harnesses (:mod:`repro.experiments.tables4`) are
embarrassingly parallel at the row level: every target circuit builds its
own :class:`repro.core.builtin_gen.BuiltinGenerator` with its own
``random.Random(rng_seed)`` stream, so rows share no mutable state and
each row is a pure function of its task kwargs.  This module is the
repo's one local-parallelism mechanism:

* :class:`ExperimentTask` -- one picklable unit of work (a module-level
  function plus keyword arguments), labelled by a stable ``key``;
* :func:`run_tasks` -- run every task once and return the outcomes **in
  task order**, whatever order they finish in, so every ``--jobs`` value
  prints the same table as ``--jobs 1``.

Where tasks run is picked by :func:`runs_inline`:

* one worker (``jobs <= 1``) and no ``timeout_s`` -- in the calling
  process, one after another: no pickling, and metrics land directly in
  the live obs registry;
* otherwise -- on worker processes that :func:`run_tasks` starts itself,
  one dedicated ``Pipe`` each, so the parent always knows which process
  owns which task.  A crashed worker is detected as EOF on its pipe, and
  a **watchdog** terminates and respawns any worker that overruns
  ``timeout_s`` without touching the others.  The watchdog is the only
  enforcement of a deadline: a timed campaign runs on a worker even at
  ``--jobs 1``, so an overrunning row fails as a ``timeout`` in every
  placement instead of finishing short.  Every worker is joined before
  :func:`run_tasks` returns.

A task that raises, whose worker dies, or that the watchdog kills takes
a typed :class:`TaskFailure` in its slot (kind ``error``, ``crash`` or
``timeout``) and the others carry on: the campaign never aborts mid-run.
Because each row is a pure function of its kwargs, running a failed or
killed campaign again prints the same table: rerunning is the only
retry.

Workers receive circuit *names*, not circuit objects: each process loads
and compiles its own copy, which keeps task payloads small and sidesteps
pickling the memoized compile/collapse caches.

Observability: when the parent's :mod:`repro.obs` registry is enabled,
each worker runs its task against a fresh, process-local registry under
a ``runner.task`` span and ships the snapshot back alongside the result;
the parent merges every snapshot into its registry (events tagged with
the task key), so ``repro-eda table --stats --jobs N`` reports one
coherent story regardless of ``N``.  Completions, timeouts, worker
crashes/respawns and failures surface as ``runner.*`` counters.  A
``progress(index, task, outcome)`` callback fires per task in task order
as the resolved prefix grows; ``repro-eda table`` prints its progress
lines and records its ``--db`` rows from it.

Only the standard library is used, and ``multiprocessing`` is imported
only when a worker is started: inline runs never pay for it.
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

_PENDING = object()  # results-slot sentinel: not yet resolved


@dataclass(frozen=True)
class ExperimentTask:
    """One unit of campaign work.

    ``fn`` must be a module-level function and ``kwargs`` picklable, so
    that a worker process can run it.  ``key`` names the task for
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
    """Whether tasks for ``n_workers`` run in this process.

    Only with one worker and no ``timeout_s``: a deadline needs a worker
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
class _Worker:
    """One worker process, its pipe, and the task it is running."""

    proc: BaseProcess
    conn: Connection
    index: int | None = None
    deadline: float | None = None


def _spawn(collect: bool) -> _Worker:
    """Start one worker process that ships obs snapshots when ``collect``."""
    # Imported here, like ``wait`` below: inline runs, and tables that
    # only check results for a TaskFailure, never need multiprocessing,
    # and importing it costs a run about 10 ms.
    import multiprocessing as mp

    parent_conn, child_conn = mp.Pipe()
    proc = mp.Process(target=_worker_main, args=(child_conn, collect), daemon=True)
    proc.start()
    child_conn.close()  # the parent keeps one end: EOF now means the worker died
    return _Worker(proc=proc, conn=parent_conn)


def _shut_down(workers: Sequence[_Worker]) -> None:
    """Ask every worker to exit, then join it (terminating a stuck one)."""
    for worker in workers:
        try:
            worker.conn.send(None)
        except (OSError, ValueError):
            pass
    for worker in workers:
        worker.proc.join(_JOIN_TIMEOUT_S)
        if worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join(_JOIN_TIMEOUT_S)
        worker.conn.close()


def _run_on_workers(
    tasks: Sequence[ExperimentTask],
    workers: list[_Worker],
    timeout_s: float | None,
    collect: bool,
    resolve: Callable[..., None],
) -> None:
    """Run every task once on ``workers``, replacing any that die or overrun.

    ``resolve(index, status, payload, snapshot)`` takes each outcome:
    ``status`` is ``ok`` with the task's value, or a failure kind with
    its message.
    """
    from multiprocessing.connection import wait

    queue = list(range(len(tasks)))

    def respawn(slot: int) -> int | None:
        """Kill the worker in ``slot`` and start a fresh one; its task index."""
        worker = workers[slot]
        worker.conn.close()
        if worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join(_JOIN_TIMEOUT_S)
        workers[slot] = _spawn(collect)
        obs.count("runner.worker_respawns")
        return worker.index

    while queue or any(worker.index is not None for worker in workers):
        for slot, worker in enumerate(workers):  # hand queued tasks to idle workers
            if worker.index is not None or not queue:
                continue
            index = queue.pop(0)
            try:
                worker.conn.send((index, tasks[index]))
            except (OSError, ValueError):
                # The worker died while idle: requeue its task on a fresh one.
                queue.insert(0, index)
                respawn(slot)
                continue
            worker.index = index
            if timeout_s is not None:
                worker.deadline = time.monotonic() + timeout_s
        busy = [slot for slot, worker in enumerate(workers) if worker.index is not None]
        if not busy:  # every idle worker was just respawned: dispatch again
            continue
        deadlines = [workers[s].deadline for s in busy if workers[s].deadline is not None]
        wait_s = max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
        ready = wait([workers[s].conn for s in busy], wait_s)
        for slot in busy:
            worker = workers[slot]
            if worker.conn not in ready:
                continue
            try:
                index, status, payload, snapshot = worker.conn.recv()
            except (EOFError, OSError):
                obs.count("runner.worker_crashes")
                resolve(respawn(slot), "crash", "worker process died without a reply")
                continue
            worker.index = worker.deadline = None
            resolve(index, status, payload, snapshot)
        now = time.monotonic()
        for slot, worker in enumerate(workers):  # the watchdog
            if worker.deadline is None or now <= worker.deadline:
                continue
            if worker.conn.poll(0):  # finished just as the deadline passed
                continue
            obs.count("runner.timeouts")
            resolve(respawn(slot), "timeout", f"exceeded timeout_s={timeout_s:g}")


def run_tasks(
    tasks: Sequence[ExperimentTask],
    jobs: int | None = None,
    progress: Callable[[int, ExperimentTask, Any], None] | None = None,
    timeout_s: float | None = None,
) -> list[Any]:
    """Run every task once; returns results (or ``TaskFailure``s) in task order.

    ``jobs`` of ``None``, 0, or 1 (or a single task) runs inline in this
    process -- no workers, no pickling -- unless ``timeout_s`` is set,
    which needs a worker the watchdog can kill; larger ``jobs`` fans out
    over that many worker processes, capped at the task count; negative
    ``jobs`` is rejected with a ``ValueError``.  Because each task is
    self-contained and results are collected in input order, the
    returned list is the same for every worker count.

    ``timeout_s`` is every task's deadline.  ``progress(index, task,
    outcome)`` is invoked per task in task order as the resolved prefix
    grows.  Every worker started here is joined before this returns or
    raises.
    """
    tasks = list(tasks)
    if jobs is not None and int(jobs) < 0:
        raise ValueError(
            f"jobs must be a non-negative worker count, got {jobs!r}"
        )
    results: list[Any] = [_PENDING] * len(tasks)
    emitted = 0
    collect = obs.enabled()

    def resolve(index: int, status: str, payload: Any, snapshot: dict | None = None) -> None:
        """Fill slot ``index``, then report the resolved prefix in task order."""
        nonlocal emitted
        if status == "ok":
            if snapshot is not None and obs.enabled():
                obs.merge(snapshot, task=tasks[index].key)
                obs.count("runner.worker_registries_merged")
            obs.count("runner.tasks_completed")
            results[index] = payload
        else:
            obs.count("runner.task_failures")
            results[index] = TaskFailure(tasks[index].key, status, payload)
        while emitted < len(results) and results[emitted] is not _PENDING:
            if progress is not None:
                progress(emitted, tasks[emitted], results[emitted])
            emitted += 1

    n_workers = min(int(jobs or 1), len(tasks))
    if runs_inline(n_workers, timeout_s):
        for index, task in enumerate(tasks):
            resolve(index, *_run_task(task))
        return results
    workers: list[_Worker] = []
    try:
        for _ in range(n_workers):  # at least one, even at jobs=1 with a deadline
            workers.append(_spawn(collect))
        _run_on_workers(tasks, workers, timeout_s, collect, resolve)
    finally:
        _shut_down(workers)
    return results
