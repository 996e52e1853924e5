"""``repro.resilience`` -- survivable experiment campaigns.

The Chapter 4 experiment tables are campaigns over several circuits,
one task per row (Table 4.3 takes about 1 s, ``chapter4`` about 3 s).
Without this layer one mis-parsed netlist, one worker crash, or one
runaway row would abort the entire run and discard every finished row.
This package makes campaigns *bounded and partially degradable*; it
sits directly under :mod:`repro.experiments.runner` and composes two
pieces:

* **Retry policy** (:mod:`repro.resilience.policy`): one
  :class:`RetryPolicy` per campaign gives every task the same deadline,
  retry budget, and deterministic exponential backoff schedule; a task
  that exhausts its budget degrades to a typed :class:`TaskFailure`
  record in the results list instead of aborting the run.  No deadline
  ever shortens a row: an attempt that overruns it is killed, never
  told to stop early.
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
or crashed worker and respawns it.  A campaign with a deadline always
runs pooled, since only a worker can be killed.  A retry runs the *same*
task kwargs, so the derived seed and therefore the row are reproduced
exactly; for the same reason a killed campaign, run again, prints the
same table.

Everything here is standard-library only.
"""

from __future__ import annotations

from repro.resilience.faultpoints import FaultSpec, InjectedFault, install
from repro.resilience.policy import RetryPolicy, TaskFailure

__all__ = [
    "FaultSpec",
    "InjectedFault",
    "RetryPolicy",
    "TaskFailure",
    "install",
]
