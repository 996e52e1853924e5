"""``repro.expdb`` -- the experiment database: queryable, gated run history.

Campaign rows, run-end metric snapshots, trace spans and end-to-end
benchmark batches land in one stdlib-``sqlite3`` file, so questions like
"fault coverage vs LFSR width across all campaigns" or "did Table 4.3's
wall clock regress since the last code change" become SQL
(:mod:`repro.expdb.store` documents the schema).  The performance gate
(:mod:`repro.expdb.gate`) judges the newest ``benchmarks/e2e/run.py
--record`` batch against the rolling history with the bounds
``BENCHMARK.json`` declares.

Every writer opens its :class:`ExperimentDB` explicitly; there is no
process-wide handle.  ``repro-eda generate|table --db PATH`` opens one
for the run, begins it with the campaign fingerprint, records every
resolved row, and finishes it with the metric snapshot and its spans
(:func:`repro.cli._run_campaign`).  ``benchmarks/e2e/run.py --record
--db PATH`` appends one bench batch.  A run without ``--db`` never
imports this package: the database never changes results, it only
remembers them.  ``repro-eda db {runs,show,query,trend,gate}`` and
``repro-eda stats --db PATH`` read the history back.
"""

from __future__ import annotations

from repro.expdb.gate import Bound, GateCheck, GateResult, gate, load_bounds
from repro.expdb.store import (
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
    "GateCheck",
    "GateResult",
    "MIGRATIONS",
    "SCHEMA_VERSION",
    "ExperimentDB",
    "ExperimentDBError",
    "code_hash",
    "fingerprint_of",
    "flatten_bench",
    "gate",
    "jsonable",
    "load_bounds",
    "payload_of",
    "utc_now",
]
