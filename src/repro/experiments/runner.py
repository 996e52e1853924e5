"""Resilient parallel experiment runner: deterministic fan-out of table rows.

The Chapter 4 experiment harnesses (:mod:`repro.experiments.tables4`) are
embarrassingly parallel at the row level: every target circuit builds its
own :class:`repro.core.builtin_gen.BuiltinGenerator` with its own
``random.Random(rng_seed)`` stream, so rows share no mutable state and
their results are independent of scheduling.  This module provides the
campaign plumbing:

* :class:`ExperimentTask` -- one picklable unit of work (a module-level
  function plus keyword arguments), labelled by a stable ``key``; it
  lives next to the scheduler in :mod:`repro.resilience.pool` and is
  re-exported here;
* :func:`run_tasks` -- run tasks through the one scheduler,
  :class:`repro.resilience.pool.SelfHealingPool`: inline for ``jobs <= 1``
  without a deadline (no pool, no pickling), across self-healing worker
  processes otherwise -- always returning results **in task order**, so
  every worker count's output equals ``jobs=1`` output exactly;
* :func:`derive_seed` -- a per-task RNG seed derived from a base seed and
  the task key, stable across runs, task orderings, and worker counts.

Resilience (see :mod:`repro.resilience`): one
:class:`repro.resilience.policy.RetryPolicy` holds the campaign's
deadline and retry budget.  A crashed worker, or one that overruns the
deadline, is killed and respawned, the task is retried with the *same*
kwargs (same derived seed, so a recovered row is byte-identical to an
unfailed one) under a deterministic exponential backoff, and a task that
exhausts its retry budget degrades to a typed
:class:`repro.resilience.policy.TaskFailure` in its slot of the results
list -- the campaign itself never aborts mid-run.  Because every row's
seed is derived from its key, rerunning a killed campaign prints the
same table.

Workers receive circuit *names*, not circuit objects: each process loads
and compiles its own copy, which keeps task payloads small and sidesteps
pickling the memoized compile/collapse caches.

Observability: when the parent's :mod:`repro.obs` registry is enabled,
each worker enables its own (fresh, process-local) registry, runs its
task under a ``runner.task`` span, and ships the registry snapshot back
alongside the result; the parent merges every snapshot into its registry
(events tagged with the task key), so ``repro-eda table --stats --jobs N``
reports one coherent story regardless of ``N``.  Retries, timeouts,
worker crashes/respawns and failures surface as ``runner.*`` counters
plus a ``runner.retry`` span per retry decision.
A ``progress(index, task, outcome)`` callback fires per task in task
order as the resolved prefix grows, with the result or ``TaskFailure``
in that slot; ``repro-eda table`` prints its progress lines and records
its ``--db`` rows from it.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Sequence

from repro import obs
from repro.resilience.policy import RetryPolicy, TaskFailure
from repro.resilience.pool import ExperimentTask, SelfHealingPool

_PENDING = object()  # results-slot sentinel: not yet resolved


def derive_seed(base_seed: int, key: str) -> int:
    """A deterministic, positive per-task seed.

    Mixes the base seed with a CRC-32 of the task key so tasks get
    distinct streams, while any given ``(base_seed, key)`` pair maps to
    the same seed regardless of task order or ``jobs``.  Retries reuse
    the task's kwargs untouched, so a retried task sees this same seed.
    """
    mixed = (base_seed * 0x10001 + zlib.crc32(key.encode("utf-8"))) % (2**31 - 1)
    return mixed or 1


def run_tasks(
    tasks: Sequence[ExperimentTask],
    jobs: int | None = None,
    progress: Callable[[int, ExperimentTask, Any], None] | None = None,
    policy: RetryPolicy | None = None,
) -> list[Any]:
    """Run every task; returns results (or ``TaskFailure``s) in task order.

    ``jobs`` of ``None``, 0, or 1 (or a single task) runs inline in this
    process -- no pool, no pickling -- unless ``policy`` sets a
    ``timeout_s``, which needs a worker the watchdog can kill; larger
    ``jobs`` fans out over self-healing worker processes, capped at the
    task count; negative ``jobs`` is rejected with a ``ValueError``.
    Both go through :class:`repro.resilience.pool.SelfHealingPool`, and
    because each task is self-contained and results are collected in
    input order, the returned list is byte-for-byte the same for every
    worker count.

    ``policy`` is the campaign's deadline and retry budget, passed to
    the pool unchanged.  ``progress(index, task, outcome)`` is
    invoked per task in task order as the resolved prefix grows.
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
        policy=policy,
        collect=obs.enabled(),
    ) as pool:
        return pool.run(tasks, on_complete)
