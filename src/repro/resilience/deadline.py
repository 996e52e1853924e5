"""Cooperative per-task deadline, published process-locally.

The watchdog in :mod:`repro.resilience.pool` is the enforcement of last
resort: it kills a worker that overruns its ``timeout_s``, losing every
partial result the task produced.  Well-behaved inner loops should stop
*before* that happens, and this module is how they find out when: the
scheduler publishes each attempt's deadline here -- the task's
``timeout_s``, else the campaign policy's -- in whichever process runs
the attempt, inline or in a worker.  Budgeted loops -- the Fig 4.9
construction deadline in :mod:`repro.core.builtin_gen`, the heuristic
and branch-and-bound time limits in :mod:`repro.atpg.tpdf` -- clamp
their own limits to the remaining task budget via :func:`clamp_budget`.

One deadline per process: experiment tasks run one at a time per worker,
so a module global (not a thread/context variable) is the honest scope.
All times are ``time.monotonic()`` seconds.
"""

from __future__ import annotations

import time

_DEADLINE: float | None = None


def set_task_deadline(timeout_s: float | None) -> None:
    """Publish the current task's deadline (``None`` clears it)."""
    global _DEADLINE
    _DEADLINE = (time.monotonic() + timeout_s) if timeout_s else None


def clear_task_deadline() -> None:
    """Forget the published deadline (task finished or was abandoned)."""
    global _DEADLINE
    _DEADLINE = None


def task_deadline() -> float | None:
    """The active task deadline as a ``time.monotonic()`` instant, if any."""
    return _DEADLINE


def remaining_budget() -> float | None:
    """Seconds left before the task deadline (``None`` = unbounded, floor 0)."""
    if _DEADLINE is None:
        return None
    return max(0.0, _DEADLINE - time.monotonic())


def clamp_budget(limit: float | None) -> float | None:
    """A sub-procedure time limit clamped to the remaining task budget.

    ``None`` on both sides means unbounded; otherwise the tighter of the
    caller's own limit and what the task deadline still allows.
    """
    left = remaining_budget()
    if left is None:
        return limit
    if limit is None:
        return left
    return min(limit, left)
