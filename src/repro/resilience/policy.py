"""Retry policy and typed task-failure records.

A campaign row can fail three ways -- its worker process dies
(``crash``), it outlives its deadline and is killed by the watchdog
(``timeout``), or it raises (``error``).  :class:`RetryPolicy` decides
how many further attempts each failure buys and how long to wait between
them; :class:`TaskFailure` is what a row degrades to once the budget is
spent, carrying enough context for the table renderers to annotate the
row and for the CLI to print an end-of-run summary.

Determinism: the backoff schedule is a pure function of the attempt
number (no jitter), and a retried task re-runs with the *same* kwargs --
including any seed derived from its key -- so a retry that succeeds
produces a row byte-identical to a run that never failed.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Failure kinds recorded on :class:`TaskFailure`.
KIND_CRASH = "crash"
KIND_TIMEOUT = "timeout"
KIND_ERROR = "error"

#: The retry backoff schedule: the delay before the first retry, its
#: growth per further retry, and the cap on any one delay (seconds).
BACKOFF_BASE_S = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_CAP_S = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """One campaign's deadline and retry budget, for every task.

    ``repro-eda table`` builds it from ``--timeout`` / ``--retries``; only
    :mod:`repro.resilience.pool` reads it.  A ``timeout_s`` is enforced
    by the pool's watchdog killing the worker that overruns it.
    """

    max_retries: int = 2  # further attempts after the first failure
    timeout_s: float | None = None  # per-attempt deadline (None = unbounded)

    def backoff_s(self, attempt: int) -> float:
        """Deterministic delay before retrying after failure ``attempt`` (0-based)."""
        return min(BACKOFF_CAP_S, BACKOFF_BASE_S * BACKOFF_FACTOR**attempt)


@dataclass(frozen=True)
class TaskFailure:
    """A row that exhausted its retries; takes the result's slot in the list.

    ``attempts`` counts every try (first run plus retries); ``kind`` is
    the failure class of the *last* attempt (``crash`` / ``timeout`` /
    ``error``); ``message`` carries the last error text for diagnostics.
    """

    key: str
    kind: str
    message: str
    attempts: int
    elapsed_s: float = 0.0

    def describe(self) -> str:
        """The table annotation, e.g. ``FAILED: timeout after 3 tries``."""
        tries = "1 try" if self.attempts == 1 else f"{self.attempts} tries"
        return f"FAILED: {self.kind} after {tries}"
