"""``repro.resilience`` -- bounded, partially degradable campaigns.

The Chapter 4 experiment tables are campaigns over several circuits,
one task per row (Table 4.3 takes about 1 s, ``chapter4`` about 3 s).
Without this layer one mis-parsed netlist, one worker crash, or one
runaway row would abort the entire run and discard every finished row.

:mod:`repro.resilience.pool` holds the one scheduler,
:class:`repro.resilience.pool.SelfHealingPool`, which runs every
:class:`repro.resilience.pool.ExperimentTask` of the campaign runner and
the sharded fault grader, inline or on respawnable worker processes.
Each task runs once.  A task that raises, whose worker dies, or that
overruns the campaign's deadline takes a typed :class:`TaskFailure` in
its slot of the results list instead of aborting the run; the pooled
placement also kills a hung or crashed worker and respawns it.  A
campaign with a deadline always runs pooled, since only a worker can be
killed, and no deadline ever shortens a row: a task that overruns it is
killed, never told to stop early.

A row is a pure function of its task kwargs -- every generator seeds
``random.Random(config.rng_seed)`` -- so a failed row fails the same way
when run again, and a table, run again, prints the same rows: rerunning
it is the only retry.

Everything here is standard-library only.
"""

from __future__ import annotations

from repro.resilience.pool import TaskFailure

__all__ = ["TaskFailure"]
