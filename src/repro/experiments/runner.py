"""Parallel experiment runner: deterministic fan-out of table rows.

The Chapter 4 experiment harnesses (:mod:`repro.experiments.tables4`) are
embarrassingly parallel at the row level: every target circuit builds its
own :class:`repro.core.builtin_gen.BuiltinGenerator` with its own
``random.Random(rng_seed)`` stream, so rows share no mutable state and
each row is a pure function of its task kwargs.  This module provides
the campaign plumbing:

* :class:`ExperimentTask` -- one picklable unit of work (a module-level
  function plus keyword arguments), labelled by a stable ``key``; it
  lives next to the scheduler in :mod:`repro.resilience.pool` and is
  re-exported here;
* :func:`run_tasks` -- run tasks through the one scheduler,
  :class:`repro.resilience.pool.SelfHealingPool`: inline for ``jobs <= 1``
  without a deadline (no pool, no pickling), across self-healing worker
  processes otherwise -- always returning results **in task order**, so
  every worker count's output equals ``jobs=1`` output exactly.

Resilience (see :mod:`repro.resilience`): every task runs once.  A task
that raises, whose worker crashes, or that overruns ``timeout_s`` (its
worker is then killed and respawned) takes a typed
:class:`repro.resilience.pool.TaskFailure` in its slot of the results
list -- the campaign itself never aborts mid-run.  Because each row is a
pure function of its kwargs, rerunning a failed or killed campaign
prints the same table.

Workers receive circuit *names*, not circuit objects: each process loads
and compiles its own copy, which keeps task payloads small and sidesteps
pickling the memoized compile/collapse caches.

Observability: when the parent's :mod:`repro.obs` registry is enabled,
each worker enables its own (fresh, process-local) registry, runs its
task under a ``runner.task`` span, and ships the registry snapshot back
alongside the result; the parent merges every snapshot into its registry
(events tagged with the task key), so ``repro-eda table --stats --jobs N``
reports one coherent story regardless of ``N``.  Timeouts, worker
crashes/respawns and failures surface as ``runner.*`` counters.
A ``progress(index, task, outcome)`` callback fires per task in task
order as the resolved prefix grows, with the result or ``TaskFailure``
in that slot; ``repro-eda table`` prints its progress lines and records
its ``--db`` rows from it.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro import obs
from repro.resilience.pool import ExperimentTask, SelfHealingPool, TaskFailure

_PENDING = object()  # results-slot sentinel: not yet resolved


def run_tasks(
    tasks: Sequence[ExperimentTask],
    jobs: int | None = None,
    progress: Callable[[int, ExperimentTask, Any], None] | None = None,
    timeout_s: float | None = None,
) -> list[Any]:
    """Run every task once; returns results (or ``TaskFailure``s) in task order.

    ``jobs`` of ``None``, 0, or 1 (or a single task) runs inline in this
    process -- no pool, no pickling -- unless ``timeout_s`` is set, which
    needs a worker the watchdog can kill; larger ``jobs`` fans out over
    self-healing worker processes, capped at the task count; negative
    ``jobs`` is rejected with a ``ValueError``.  Both go through
    :class:`repro.resilience.pool.SelfHealingPool`, and because each task
    is self-contained and results are collected in input order, the
    returned list is byte-for-byte the same for every worker count.

    ``timeout_s`` is every task's deadline, passed to the pool
    unchanged.  ``progress(index, task, outcome)`` is invoked per task in
    task order as the resolved prefix grows.
    """
    tasks = list(tasks)
    if jobs is not None and int(jobs) < 0:
        raise ValueError(
            f"jobs must be a non-negative worker count, got {jobs!r}"
        )
    results: list[Any] = [_PENDING] * len(tasks)
    emitted = 0

    def on_complete(index: int, outcome: Any, snapshot: dict | None) -> None:
        """Merge a finished row's worker metrics, then report the resolved prefix."""
        nonlocal emitted
        results[index] = outcome
        if not isinstance(outcome, TaskFailure):
            if snapshot is not None and obs.enabled():
                obs.merge(snapshot, task=tasks[index].key)
                obs.count("runner.worker_registries_merged")
            obs.count("runner.tasks_completed")
        # Fire ``progress`` for the resolved prefix, in task order.
        while emitted < len(results) and results[emitted] is not _PENDING:
            if progress is not None:
                progress(emitted, tasks[emitted], results[emitted])
            emitted += 1

    with SelfHealingPool(
        n_workers=min(int(jobs or 1), len(tasks)),
        timeout_s=timeout_s,
        collect=obs.enabled(),
    ) as pool:
        return pool.run(tasks, on_complete)
