"""Job model and manager: a bounded priority queue over the executor seam.

A :class:`Job` is one submitted campaign moving through the lifecycle
``queued -> running -> done | degraded | failed`` (``degraded`` means
the campaign finished but some rows exhausted their retries and render
as dashes, exactly like the CLI's partial tables; ``failed`` means the
campaign itself raised and there is no result).  Cache-hit submissions
jump straight to ``done`` without ever entering the queue.

The :class:`JobManager` owns:

* a **bounded priority queue** -- higher ``priority`` drains first,
  FIFO within a priority; submissions beyond ``queue_limit`` are
  rejected (HTTP 503) rather than buffered without bound;
* **per-client quotas** -- a client may hold at most
  ``max_client_jobs`` queued-or-running jobs (HTTP 409);
* **content-addressed reuse** -- results are stored under
  :meth:`repro.service.spec.CampaignSpec.result_key` in an in-process
  memo *and*, when a cache directory is active, in the persistent
  :mod:`repro.cache` ``results`` kind, so resubmitting an identical
  campaign returns instantly without executing anything;
* **one runner thread** draining jobs onto a single
  :class:`repro.exec.base.Executor` -- in-process, local pool, or the
  supervised remote fleet, all unchanged.  Campaign execution and the
  process-wide :mod:`repro.expdb` connection both live on that thread
  (sqlite connections are thread-affine), which is why cache-hit
  submissions record their history through a short-lived connection of
  their own.

Every job transition lands both in the manager's plain counters (the
``/v1/stats`` payload, available even with observability off) and in the
``service.*`` metric namespace rendered as the "campaign service"
section of ``--stats`` reports.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import asdict
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.resilience.policy import KIND_ERROR, KIND_TIMEOUT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.base import Executor

    from .spec import CampaignSpec

#: Job lifecycle states, in order of appearance.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
DEGRADED = "degraded"
FAILED = "failed"

#: States a job can end in (its events stream closes on reaching one).
TERMINAL_STATES = (DONE, DEGRADED, FAILED)

#: States that count against a client's concurrent-job quota.
ACTIVE_STATES = (QUEUED, RUNNING)


class QuotaExceeded(RuntimeError):
    """A client is over its concurrent-job quota (HTTP 409)."""


class QueueFull(RuntimeError):
    """The bounded job queue is at capacity (HTTP 503)."""


class ServiceClosed(RuntimeError):
    """The manager is shutting down and accepts no new jobs."""


def _utc_now() -> str:
    from repro.expdb import utc_now

    return utc_now()


class Job:
    """One submitted campaign and everything observable about it.

    All mutation happens under the owning manager's condition lock; the
    read-side helpers (:meth:`describe`, :meth:`events_since`,
    :meth:`result`) take it too, so HTTP handlers on other threads see
    consistent snapshots.
    """

    def __init__(
        self,
        job_id: str,
        spec: "CampaignSpec",
        cond: threading.Condition,
        priority: int = 0,
        client: str = "anonymous",
    ) -> None:
        """A freshly submitted job in the ``queued`` state."""
        self.id = job_id
        self.spec = spec
        self.priority = priority
        self.client = client
        self.fingerprint = spec.fingerprint()
        self.state = QUEUED
        self.cached = False
        self.submitted_utc = _utc_now()
        self.started_utc: str | None = None
        self.finished_utc: str | None = None
        self.elapsed_s: float | None = None
        self.rows_done = 0
        self.rows_total = spec.rows_total()
        self.failures: list[dict[str, Any]] = []
        self.error: dict[str, str] | None = None
        self.result_text: str | None = None
        self.events: list[dict[str, Any]] = []
        self._cond = cond

    # -- mutation (call with the manager lock held) ---------------------
    def _event(self, name: str, **extra: Any) -> None:
        self.events.append(
            {"seq": len(self.events), "job": self.id, "event": name, **extra}
        )
        self._cond.notify_all()

    def _finish(self, state: str, started_monotonic: float | None = None) -> None:
        self.state = state
        self.finished_utc = _utc_now()
        if started_monotonic is not None:
            self.elapsed_s = time.monotonic() - started_monotonic
        elif self.elapsed_s is None:
            self.elapsed_s = 0.0

    # -- thread-safe read side ------------------------------------------
    def describe(self) -> dict[str, Any]:
        """The job's status document (``GET /v1/jobs/{id}``)."""
        with self._cond:
            return {
                "id": self.id,
                "state": self.state,
                "kind": self.spec.kind,
                "label": self.spec.label,
                "priority": self.priority,
                "client": self.client,
                "fingerprint": self.fingerprint,
                "cached": self.cached,
                "submitted_utc": self.submitted_utc,
                "started_utc": self.started_utc,
                "finished_utc": self.finished_utc,
                "elapsed_s": self.elapsed_s,
                "rows_done": self.rows_done,
                "rows_total": self.rows_total,
                "failures": list(self.failures),
                "error": self.error,
            }

    def events_since(self, seq: int) -> tuple[list[dict[str, Any]], bool]:
        """Events after ``seq`` plus whether the job has reached a terminal state."""
        with self._cond:
            return list(self.events[seq:]), self.state in TERMINAL_STATES

    def result(self) -> str | None:
        """The rendered campaign text, or ``None`` while unavailable."""
        with self._cond:
            return self.result_text


class JobManager:
    """Bounded priority queue + runner thread (see module docstring)."""

    def __init__(
        self,
        executor: "Executor | None" = None,
        executor_kind: str = "inprocess",
        queue_limit: int = 64,
        max_client_jobs: int = 8,
        db_path: str | None = None,
    ) -> None:
        """A manager draining jobs onto ``executor`` (``None`` = inline).

        ``executor`` stays owned by the caller (the CLI closes it);
        ``executor_kind`` is what job listings and expdb runs report.
        ``db_path`` activates experiment-database recording from the
        runner thread.  :meth:`start` must be called before submitted
        jobs make progress.
        """
        self._executor = executor
        self.executor_kind = executor_kind
        self.queue_limit = queue_limit
        self.max_client_jobs = max_client_jobs
        self._db_path = db_path
        self._cond = threading.Condition()
        self._jobs: dict[str, Job] = {}
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = itertools.count()
        self._ids = itertools.count(1)
        self._closed = False
        self._thread: threading.Thread | None = None
        self._memo: dict[str, str] = {}
        self.counters: dict[str, int] = {}

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Start the runner thread (idempotent)."""
        if self._db_path:
            # Release any connection this (the caller's) thread already
            # resolved: the runner thread is about to own the process
            # connection, and sqlite handles cannot be closed cross-thread.
            from repro import expdb

            expdb.reset()
        with self._cond:
            if self._thread is not None or self._closed:
                return
            self._thread = threading.Thread(
                target=self._run_loop, name="repro-service-runner", daemon=True
            )
            self._thread.start()

    def close(self) -> None:
        """Stop accepting jobs and join the runner thread (idempotent).

        Queued jobs that never ran stay ``queued``; the job currently
        running finishes first (the runner only checks for shutdown
        between jobs).  The executor belongs to the caller and is not
        closed here.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=300.0)

    # -- submission -----------------------------------------------------
    def submit(self, spec: "CampaignSpec", priority: int = 0, client: str = "anonymous") -> Job:
        """Accept one campaign; returns its :class:`Job` (maybe already done).

        Raises :class:`QuotaExceeded` when ``client`` is at its
        concurrent-job limit, :class:`QueueFull` when the bounded queue
        is at capacity, and :class:`ServiceClosed` during shutdown.  A
        content-address hit returns a finished job immediately -- no
        queue slot, no execution.
        """
        with self._cond:
            if self._closed:
                raise ServiceClosed("service is shutting down")
            active = sum(
                1
                for j in self._jobs.values()
                if j.client == client and j.state in ACTIVE_STATES
            )
            if active >= self.max_client_jobs:
                self._bump("quota_rejected")
                raise QuotaExceeded(
                    f"client {client!r} already has {active} active job(s) "
                    f"(limit {self.max_client_jobs})"
                )
            cached_text = self._load_result(spec.result_key())
            job = Job(
                f"j{next(self._ids)}", spec, self._cond,
                priority=priority, client=client,
            )
            self._jobs[job.id] = job
            if cached_text is not None:
                job._event("queued", priority=priority)
                job._event("cache_hit", key=spec.result_key()[:16])
                job.cached = True
                job.result_text = cached_text
                job.rows_done = job.rows_total or 0
                job._finish(DONE)
                job._event("done", cached=True)
                self._bump("jobs_submitted")
                self._bump("cache_hits")
                self._bump("jobs_completed")
            else:
                if len(self._heap) >= self.queue_limit:
                    del self._jobs[job.id]
                    self._bump("queue_rejected")
                    raise QueueFull(
                        f"job queue is full ({self.queue_limit} job(s) queued)"
                    )
                heapq.heappush(self._heap, (-priority, next(self._seq), job))
                job._event("queued", priority=priority)
                self._bump("jobs_submitted")
                self._cond.notify_all()
        if cached_text is not None:
            self._record_cached_run(job)
        return job

    def job(self, job_id: str) -> Job | None:
        """Look one job up by id (``None`` when unknown)."""
        with self._cond:
            return self._jobs.get(job_id)

    def stats(self) -> dict[str, Any]:
        """Queue depth, per-state job counts, and event counters."""
        with self._cond:
            states: dict[str, int] = {}
            for j in self._jobs.values():
                states[j.state] = states.get(j.state, 0) + 1
            return {
                "executor": self.executor_kind,
                "queue_depth": len(self._heap),
                "queue_limit": self.queue_limit,
                "max_client_jobs": self.max_client_jobs,
                "jobs": states,
                "counters": dict(sorted(self.counters.items())),
            }

    # -- internals ------------------------------------------------------
    def _bump(self, name: str) -> None:
        """Count one service event in both the plain and obs registries."""
        self.counters[name] = self.counters.get(name, 0) + 1
        obs.count(f"service.{name}")

    def _load_result(self, key: str) -> str | None:
        """Probe the in-process memo, then the persistent results cache."""
        text = self._memo.get(key)
        if text is not None:
            return text
        from repro import cache

        store = cache.active()
        if store is None:
            return None
        text = store.load_result(key)
        if text is not None:
            self._memo[key] = text
        return text

    def _store_result(self, key: str, text: str) -> None:
        """Publish a clean result to the memo and the persistent cache."""
        self._memo[key] = text
        from repro import cache

        store = cache.active()
        if store is not None:
            store.store_result(key, text)

    def _record_cached_run(self, job: Job) -> None:
        """Record a cache-served job in the experiment database.

        Runs on the submitting (HTTP) thread, so it opens its own
        short-lived connection rather than touching the runner thread's
        -- sqlite connections are thread-affine, concurrent writers are
        the store's documented contract.
        """
        if not self._db_path:
            return
        from repro.expdb import ExperimentDB, ExperimentDBError

        try:
            with ExperimentDB(self._db_path) as db:
                run_id = db.begin_run(
                    job.spec.kind,
                    job.spec.label,
                    fingerprint=job.fingerprint,
                    executor=self.executor_kind,
                    argv=[f"service:{job.id}", "cached"],
                )
                db.finish_run(run_id, status="ok", exit_code=0, elapsed_s=0.0)
        except ExperimentDBError:
            pass  # history is best-effort; the result was already served

    def _run_loop(self) -> None:
        """Runner thread: drain the priority queue until :meth:`close`."""
        from repro import expdb

        if self._db_path:
            # The process-wide connection must live on the thread that
            # uses it; every campaign (and its row recording) runs here.
            expdb.configure(self._db_path)
        try:
            while True:
                with self._cond:
                    while not self._heap and not self._closed:
                        self._cond.wait(timeout=1.0)
                    if self._closed:
                        return
                    _, _, job = heapq.heappop(self._heap)
                self._run_job(job)
        finally:
            if self._db_path:
                expdb.configure(None)

    def _run_job(self, job: Job) -> None:
        """Execute one job end to end, recording history and events."""
        from repro import expdb

        from .campaigns import run_campaign

        spec = job.spec
        with self._cond:
            job.state = RUNNING
            job.started_utc = _utc_now()
            job._event("started", executor=self.executor_kind)
        db = expdb.active()
        run_id = None
        started = time.monotonic()
        if db is not None:
            run_id = db.begin_run(
                spec.kind,
                spec.label,
                fingerprint=job.fingerprint,
                executor=self.executor_kind,
                argv=[f"service:{job.id}"],
            )
            expdb.set_current_run(run_id)
        code = 1
        try:
            def progress(index: int, task: Any) -> None:
                """Stream one completed row as a job event."""
                with self._cond:
                    job.rows_done += 1
                    job._event("row", index=index, key=getattr(task, "key", "?"))

            outcome = run_campaign(spec, executor=self._executor, progress=progress)
            code = outcome.exit_code
            with self._cond:
                job.result_text = outcome.text
                job.failures = [asdict(f) for f in outcome.failures]
                job._finish(DEGRADED if outcome.failures else DONE, started)
                job._event(job.state, failures=len(job.failures))
            if outcome.failures:
                self._bump("jobs_degraded")
            else:
                self._store_result(spec.result_key(), outcome.text)
                self._bump("jobs_completed")
        except Exception as exc:  # noqa: BLE001 - degrade to a typed job failure
            kind = KIND_TIMEOUT if isinstance(exc, TimeoutError) else KIND_ERROR
            with self._cond:
                job.error = {"kind": kind, "message": f"{type(exc).__name__}: {exc}"}
                job._finish(FAILED, started)
                job._event("failed", **job.error)
            self._bump("jobs_failed")
        finally:
            if db is not None and run_id is not None:
                snapshot = obs.registry().snapshot() if obs.enabled() else None
                db.finish_run(
                    run_id,
                    snapshot=snapshot,
                    status="ok" if code == 0 else "failed",
                    exit_code=code,
                    elapsed_s=time.monotonic() - started,
                )
                expdb.set_current_run(None)
