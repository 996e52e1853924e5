"""``repro.exec`` -- the execution plane for campaign dispatch.

Every embarrassingly parallel campaign in the repo -- the Chapter 4
table rows (:func:`repro.experiments.runner.run_tasks`) and the sharded
PPSFP fault grading (:class:`repro.faults.fsim.FaultGrader`) -- rides
one schedulable unit-of-work abstraction with two local backends:

* :class:`repro.exec.base.Executor` -- ``submit(task) -> future`` plus
  ``drain()``, with deterministic submission-order results and typed
  :class:`repro.resilience.policy.TaskFailure` degradation;
* :class:`repro.exec.inprocess.InProcessExecutor` -- serial reference
  backend, used for ``--jobs 1`` / ``--shards 1``;
* :class:`repro.exec.localpool.LocalPoolExecutor` -- the
  :mod:`repro.resilience.pool` crash/hang/retry semantics behind the
  shared seam, used for ``--jobs N`` / ``--shards N`` above 1.

The contract that makes ``--jobs`` and ``--shards`` pure wall-clock
knobs: identical tasks produce identical result lists on both backends
(byte-identical rendered tables), and checkpoint fingerprints exclude
every dispatch parameter, so a journal written under one backend
resumes under the other (:mod:`repro.resilience.checkpoint`).
``tests/test_executor_contract.py`` pins all of this against both
backends.

Dispatch observability lands under ``executor.*`` (the "execution
plane" section of the ``--stats`` report): submit/result spans, a
queue-depth gauge, and a per-backend dispatch-latency histogram.
"""

from __future__ import annotations

from repro.exec.base import Executor, TaskFuture
from repro.exec.inprocess import InProcessExecutor
from repro.exec.localpool import LocalPoolExecutor

__all__ = [
    "Executor",
    "InProcessExecutor",
    "LocalPoolExecutor",
    "TaskFuture",
    "validate_jobs",
    "validate_shards",
]


def validate_jobs(jobs: int | None) -> int | None:
    """Validate a ``--jobs`` value: ``None`` or a positive worker count.

    Raises ``ValueError`` naming the offending value otherwise.
    """
    if jobs is None:
        return None
    if int(jobs) < 1:
        raise ValueError(f"jobs must be a positive worker count, got {jobs!r}")
    return int(jobs)


def validate_shards(shards: int | None) -> int | None:
    """Validate a ``--shards`` value: ``None`` or a positive shard count.

    Raises ``ValueError`` naming the offending value otherwise.
    """
    if shards is None:
        return None
    if int(shards) < 1:
        raise ValueError(f"shards must be a positive shard count, got {shards!r}")
    return int(shards)
