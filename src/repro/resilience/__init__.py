"""``repro.resilience`` -- survivable experiment campaigns.

The Chapter 4 experiment tables are hours-long campaigns over many
circuits.  Before this layer existed, one mis-parsed netlist, one worker
crash, or one runaway row aborted the entire run and discarded every
finished row.  This package makes campaigns *bounded, restartable, and
partially degradable*; it sits directly under
:mod:`repro.experiments.runner` and composes four pieces:

* **Retry policy** (:mod:`repro.resilience.policy`):
  :class:`RetryPolicy` gives every task a deadline, a retry budget, and
  a deterministic exponential backoff schedule; a task that exhausts its
  budget degrades to a typed :class:`TaskFailure` record in the results
  list instead of aborting the run.
* **Cooperative deadlines** (:mod:`repro.resilience.deadline`): each
  attempt's deadline (the task's ``timeout_s``, else the policy's) is
  published in the process running it, so long-running inner loops
  (the Fig 4.9 construction deadline in :mod:`repro.core.builtin_gen`,
  the heuristic/branch-and-bound budgets in :mod:`repro.atpg.tpdf`)
  clamp their own time limits to the remaining task budget and stop
  *before* the watchdog has to kill them.
* **Checkpoint/resume** (:mod:`repro.resilience.checkpoint`): completed
  row results (plus their obs snapshots) are journaled as JSONL
  (schema ``repro-resume-v1``) keyed by task key + campaign fingerprint;
  a killed campaign restarted with ``--resume`` re-runs only the
  unfinished rows.
* **Deterministic fault injection** (:mod:`repro.resilience.faultpoints`):
  named crash/hang/flaky points (``REPRO_FAULT=runner.task:s1423:crash_once``)
  fire inside worker tasks so the whole failure surface -- worker death,
  hangs killed by the watchdog, flaky-then-succeed schedules -- is
  drivable from tests, which assert byte-identical final tables against
  uninjected runs.

Dispatch itself lives in :mod:`repro.resilience.pool`: one scheduler,
:class:`repro.resilience.pool.SelfHealingPool`, runs every
:class:`repro.resilience.pool.ExperimentTask` of the campaign runner and
the sharded fault grader, inline or on respawnable worker processes.
Both placements share one retry loop; the pooled one also kills a hung
or crashed worker and respawns it.  A retry runs the *same* task kwargs,
so the derived seed and therefore the row are reproduced exactly.

Everything here is standard-library only.
"""

from __future__ import annotations

from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointJournal,
    RESUME_SCHEMA,
    fingerprint_of,
)
from repro.resilience.deadline import (
    clamp_budget,
    clear_task_deadline,
    remaining_budget,
    set_task_deadline,
    task_deadline,
)
from repro.resilience.faultpoints import FaultSpec, InjectedFault, install
from repro.resilience.policy import RetryPolicy, TaskFailure

__all__ = [
    "CheckpointError",
    "CheckpointJournal",
    "FaultSpec",
    "InjectedFault",
    "RESUME_SCHEMA",
    "RetryPolicy",
    "TaskFailure",
    "clamp_budget",
    "clear_task_deadline",
    "fingerprint_of",
    "install",
    "remaining_budget",
    "set_task_deadline",
    "task_deadline",
]
