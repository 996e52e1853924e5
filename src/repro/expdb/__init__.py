"""``repro.expdb`` -- the experiment database: queryable, gated run history.

Campaign rows, run-end metric snapshots, trace spans and end-to-end
benchmark batches land in one stdlib-``sqlite3`` file, so questions like
"fault coverage vs LFSR width across all campaigns" or "did Table 4.3's
wall clock regress since the last code change" become SQL
(:mod:`repro.expdb.store` documents the schema).  The performance gate
(:mod:`repro.expdb.gate`) judges the newest ``benchmarks/e2e/run.py
--record`` batch against the rolling history with the bounds
``BENCHMARK.json`` declares.

Activation is process-wide and opt-in:

* ``repro-eda ... --db PATH`` (which also exports the variable so pool
  workers inherit it), or
* the ``REPRO_DB`` environment variable, or
* :func:`configure` from code.

With neither set, :func:`active` returns ``None`` and every producer
(the experiment runner, the CLI run wrapper) skips recording -- the
database never changes results, it only remembers them.
``benchmarks/e2e/run.py --record --db PATH`` opens its database
explicitly.  ``repro-eda db {runs,show,query,trend,gate}`` reads the
history back.

Worker processes also carry the *run id* (:data:`RUN_ENV_VAR`) so their
row records attach to the run the parent opened, not runs of their own.
"""

from __future__ import annotations

import os

from repro.expdb.gate import Bound, GateCheck, GateResult, gate, load_bounds
from repro.expdb.store import (
    ENV_VAR,
    MIGRATIONS,
    SCHEMA_VERSION,
    ExperimentDB,
    ExperimentDBError,
    code_hash,
    fingerprint_of,
    flatten_bench,
    jsonable,
    payload_of,
    utc_now,
)

__all__ = [
    "Bound",
    "ENV_VAR",
    "GateCheck",
    "GateResult",
    "MIGRATIONS",
    "RUN_ENV_VAR",
    "SCHEMA_VERSION",
    "ExperimentDB",
    "ExperimentDBError",
    "active",
    "code_hash",
    "configure",
    "current_run",
    "fingerprint_of",
    "flatten_bench",
    "gate",
    "jsonable",
    "load_bounds",
    "payload_of",
    "reset",
    "set_current_run",
    "utc_now",
]

#: Environment variable carrying the open run id into worker processes.
RUN_ENV_VAR = "REPRO_DB_RUN"

_active: ExperimentDB | None = None
_resolved = False
_run_id: int | None = None


def configure(path: str | os.PathLike | None) -> ExperimentDB | None:
    """Activate the database at ``path`` (``None`` deactivates).

    Returns the active database.  Overrides whatever ``REPRO_DB`` says
    for the rest of the process; closes any previously active handle.
    """
    global _active, _resolved, _run_id
    if _active is not None:
        _active.close()
        _active = None  # a failed open below must not leave the closed handle
    _active = ExperimentDB(path) if path is not None else None
    _resolved = True
    if _active is None:
        _run_id = None
    return _active


def active() -> ExperimentDB | None:
    """The process-wide database, or ``None`` when recording is off.

    Resolved lazily on first call: an explicit :func:`configure` wins,
    otherwise ``REPRO_DB`` is consulted once -- the path a pool worker
    inherits from the CLI's export.
    """
    global _active, _resolved
    if not _resolved:
        path = os.environ.get(ENV_VAR)
        _active = ExperimentDB(path) if path else None
        _resolved = True
    return _active


def current_run() -> int | None:
    """The run id producers should attach records to, or ``None``.

    An explicit :func:`set_current_run` (the parent CLI process) wins;
    otherwise ``REPRO_DB_RUN`` is consulted (worker processes).
    """
    if _run_id is not None:
        return _run_id
    raw = os.environ.get(RUN_ENV_VAR)
    return int(raw) if raw else None


def set_current_run(run_id: int | None) -> None:
    """Pin the run id for this process and export it to children."""
    global _run_id
    _run_id = run_id
    if run_id is None:
        os.environ.pop(RUN_ENV_VAR, None)
    else:
        os.environ[RUN_ENV_VAR] = str(run_id)


def reset() -> None:
    """Forget the resolved database so :func:`active` re-reads the env."""
    global _active, _resolved, _run_id
    if _active is not None:
        _active.close()
    _active = None
    _resolved = False
    _run_id = None
