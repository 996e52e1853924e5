"""SQLite experiment store: every run, row, metric, span, and bench sample.

One :class:`ExperimentDB` wraps a single ``sqlite3`` file holding the
repository's entire experimental history.  Schema (version
:data:`SCHEMA_VERSION`, applied by ordered migrations so old files
upgrade in place)::

    runs           one row per recorded run: kind ('generate' | 'table' |
                   'bench' | ...), label, the campaign-parameter
                   fingerprint (:func:`repro.resilience.checkpoint.
                   fingerprint_of` of the campaign config), the
                   code-version hash (:func:`code_hash`), kernel label
                   (historical; new runs leave it empty),
                   executor, argv, UTC start/finish stamps, status,
                   exit code
    rows           child: one completed campaign/table row per record
                   (key, index, status ok|failed|resumed, elapsed,
                   canonical-JSON payload)
    metrics        child: the obs snapshot at run end -- counters and
                   gauges as scalar values, histograms as
                   count/total/min/max plus p50/p95/p99 estimates
    spans          child: completed trace spans (name, start, dur, depth,
                   parent, JSON attrs)
    bench_samples  flattened numeric leaves of a ``benchmarks/e2e/run.py
                   --record`` payload, grouped by a monotonically
                   increasing ``batch`` id and stamped with the code hash
                   and UTC time (the ``kernel`` column is historical; new
                   batches leave it empty) -- the history ``repro-eda db
                   gate`` judges against

Durability and concurrency: connections run in WAL mode with a busy
timeout, every write happens inside one transaction, and transient
``database is locked`` errors are retried with backoff -- several pool
workers (or several campaigns) can append to one file concurrently
without corrupting it (exercised by ``tests/test_expdb.py``).

The store is standard-library only and sits at the bottom of the
layering beside :mod:`repro.obs`: it imports nothing from :mod:`repro`
above ``obs``, so any layer may record into it without import cycles.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

#: Environment variable carrying the active database path across
#: processes (exported by the CLI, so pool workers inherit it).
ENV_VAR = "REPRO_DB"

#: Current schema version; :data:`MIGRATIONS` must have this many steps.
SCHEMA_VERSION = 2

#: Ordered DDL migrations; step ``i`` upgrades a version-``i`` database
#: to version ``i + 1``.  Never edit an existing step -- append.
MIGRATIONS: tuple[tuple[str, ...], ...] = (
    # v0 -> v1: the initial layout.
    (
        """
        CREATE TABLE runs (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            kind TEXT NOT NULL,
            label TEXT NOT NULL,
            fingerprint TEXT,
            code_hash TEXT NOT NULL,
            kernel TEXT,
            executor TEXT,
            argv TEXT,
            started_utc TEXT NOT NULL,
            finished_utc TEXT,
            elapsed_s REAL,
            status TEXT NOT NULL DEFAULT 'running',
            exit_code INTEGER
        )
        """,
        """
        CREATE TABLE rows (
            run_id INTEGER NOT NULL REFERENCES runs(id),
            key TEXT NOT NULL,
            idx INTEGER NOT NULL,
            status TEXT NOT NULL DEFAULT 'ok',
            elapsed_s REAL,
            payload TEXT
        )
        """,
        "CREATE INDEX rows_by_run ON rows(run_id)",
        """
        CREATE TABLE metrics (
            run_id INTEGER NOT NULL REFERENCES runs(id),
            name TEXT NOT NULL,
            kind TEXT NOT NULL,
            value REAL,
            count INTEGER,
            total REAL,
            min REAL,
            max REAL
        )
        """,
        "CREATE INDEX metrics_by_name ON metrics(name)",
        """
        CREATE TABLE spans (
            run_id INTEGER NOT NULL REFERENCES runs(id),
            name TEXT NOT NULL,
            start REAL,
            dur REAL,
            depth INTEGER,
            parent TEXT,
            attrs TEXT
        )
        """,
        """
        CREATE TABLE bench_samples (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            batch INTEGER NOT NULL,
            recorded_utc TEXT NOT NULL,
            code_hash TEXT NOT NULL,
            kernel TEXT,
            quick INTEGER NOT NULL DEFAULT 0,
            section TEXT NOT NULL,
            subject TEXT NOT NULL,
            metric TEXT NOT NULL,
            value REAL NOT NULL
        )
        """,
        "CREATE INDEX bench_by_metric ON bench_samples(section, subject, metric)",
    ),
    # v1 -> v2: histogram quantile estimates on metric snapshots.
    (
        "ALTER TABLE metrics ADD COLUMN p50 REAL",
        "ALTER TABLE metrics ADD COLUMN p95 REAL",
        "ALTER TABLE metrics ADD COLUMN p99 REAL",
    ),
)

#: Transient-lock retry schedule (seconds) on top of the busy timeout.
_RETRY_DELAYS = (0.05, 0.1, 0.2, 0.5, 1.0)

_code_hash: str | None = None


class ExperimentDBError(RuntimeError):
    """Raised when the database file cannot back the requested operation."""


def code_hash() -> str:
    """Short digest of every source file under the ``repro`` package.

    The run-identity counterpart of the campaign-parameter fingerprint:
    two runs with equal fingerprints *and* equal code hashes should
    reproduce each other, so trends across code hashes are trajectories
    and trends within one are reruns.  Memoized per process.
    """
    global _code_hash
    if _code_hash is None:
        digest = hashlib.sha256()
        root = Path(__file__).resolve().parent.parent
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _code_hash = digest.hexdigest()[:16]
    return _code_hash


def utc_now() -> str:
    """The current UTC time as an ISO-8601 second-resolution string."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def jsonable(obj: Any) -> Any:
    """A JSON-stable view of an arbitrary result object.

    Mirrors the canonicalization the checkpoint fingerprint uses:
    dataclasses become ``{TypeName: fields}``, mappings sort by key, sets
    sort by repr, and anything else non-primitive degrades to ``repr``.
    Keeping payloads canonical makes ``db query`` JSON extraction stable
    across runs and backends.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return {type(obj).__name__: jsonable(asdict(obj))}
    if isinstance(obj, Mapping):
        return {
            str(k): jsonable(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        return [jsonable(v) for v in items]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def payload_of(result: Any) -> Any:
    """The JSON payload recorded for one campaign-row result.

    Results that know their own table row (anything with a callable
    ``row()``, e.g. :class:`repro.experiments.tables4.Table43Case`)
    contribute exactly that row dict -- the queryable shape the rendered
    table is built from.  Everything else is canonicalized with
    :func:`jsonable`.
    """
    row = getattr(result, "row", None)
    if callable(row):
        try:
            return jsonable(row())
        except Exception:  # noqa: BLE001 - fall through to the generic shape
            pass
    return jsonable(result)


def flatten_bench(payload: Mapping[str, Any]) -> list[tuple[str, str, str, float]]:
    """Flatten a bench payload into ``(section, subject, metric, value)`` tuples.

    The payload nests ``section -> subject -> metric -> number``, the shape
    ``benchmarks/e2e/run.py`` emits (``bench_payload``); any other key or
    leaf (a flat section, a string, a boolean) is skipped.
    """
    out: list[tuple[str, str, str, float]] = []
    for section, body in payload.items():
        if not isinstance(body, Mapping):
            continue
        for subject, metrics in body.items():
            if not isinstance(metrics, Mapping):
                continue
            for metric, value in metrics.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    out.append((str(section), str(subject), str(metric), float(value)))
    return out


class ExperimentDB:
    """One experiment database file (see the module docstring).

    Opening creates the file and applies any outstanding migrations;
    every public method is safe to call from several processes holding
    their own instances on the same path.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        try:
            self._conn = sqlite3.connect(self.path, timeout=30.0)
        except sqlite3.Error as exc:
            raise ExperimentDBError(f"cannot open {self.path}: {exc}") from exc
        self._conn.row_factory = sqlite3.Row
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._migrate()
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            raise ExperimentDBError(
                f"{self.path} is not an experiment database: {exc}"
            ) from exc

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ExperimentDB":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- schema --------------------------------------------------------
    @property
    def schema_version(self) -> int:
        """The migration level of the open file."""
        return int(self._conn.execute("PRAGMA user_version").fetchone()[0])

    def _migrate(self) -> None:
        """Apply outstanding migrations inside one locked transaction."""
        version = self.schema_version
        if version > SCHEMA_VERSION:
            raise ExperimentDBError(
                f"{self.path} has schema v{version}, newer than this code's "
                f"v{SCHEMA_VERSION}: upgrade the repository checkout"
            )
        if version == SCHEMA_VERSION:
            return
        with self._write():
            # Re-read under the lock: a concurrent opener may have won.
            version = self.schema_version
            for step in range(version, SCHEMA_VERSION):
                for statement in MIGRATIONS[step]:
                    self._conn.execute(statement)
                self._conn.execute(f"PRAGMA user_version = {step + 1}")

    # -- transaction plumbing ------------------------------------------
    def _write(self):
        """A retrying immediate-transaction context manager."""
        return _WriteTxn(self._conn)

    # -- run lifecycle -------------------------------------------------
    def begin_run(
        self,
        kind: str,
        label: str,
        fingerprint: str | None = None,
        kernel: str | None = None,
        executor: str | None = None,
        argv: Sequence[str] | None = None,
    ) -> int:
        """Insert a ``running`` run row; returns its id."""
        with self._write():
            cur = self._conn.execute(
                "INSERT INTO runs (kind, label, fingerprint, code_hash, kernel,"
                " executor, argv, started_utc) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    kind,
                    label,
                    fingerprint,
                    code_hash(),
                    kernel,
                    executor,
                    json.dumps(list(argv)) if argv is not None else None,
                    utc_now(),
                ),
            )
            return int(cur.lastrowid)

    def annotate_run(self, run_id: int, **fields: Any) -> None:
        """Update late-bound run columns (fingerprint, executor, ...)."""
        allowed = {"fingerprint", "executor", "kernel", "label"}
        unknown = set(fields) - allowed
        if unknown:
            raise ValueError(f"cannot annotate run fields: {sorted(unknown)}")
        if not fields:
            return
        names = sorted(fields)
        with self._write():
            self._conn.execute(
                f"UPDATE runs SET {', '.join(f'{n} = ?' for n in names)} WHERE id = ?",
                [fields[n] for n in names] + [run_id],
            )

    def record_row(
        self,
        run_id: int,
        key: str,
        idx: int,
        payload: Any,
        status: str = "ok",
        elapsed_s: float | None = None,
    ) -> None:
        """Append one completed campaign/table row to a run."""
        with self._write():
            self._conn.execute(
                "INSERT INTO rows (run_id, key, idx, status, elapsed_s, payload)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (run_id, key, idx, status, elapsed_s, json.dumps(jsonable(payload))),
            )

    def finish_run(
        self,
        run_id: int,
        snapshot: Mapping[str, Any] | None = None,
        status: str = "ok",
        exit_code: int = 0,
        elapsed_s: float | None = None,
    ) -> None:
        """Stamp a run finished and store its obs snapshot, if any.

        ``snapshot`` is a :meth:`repro.obs.registry.MetricsRegistry.
        snapshot` dict: counters and gauges become scalar metric rows,
        histograms become summary rows with p50/p95/p99 estimated from
        the quantile reservoir, and events become span rows.
        """
        from repro.obs.registry import Histogram

        with self._write():
            self._conn.execute(
                "UPDATE runs SET finished_utc = ?, status = ?, exit_code = ?,"
                " elapsed_s = ? WHERE id = ?",
                (utc_now(), status, exit_code, elapsed_s, run_id),
            )
            if snapshot is None:
                return
            metric_rows: list[tuple] = []
            for name, value in snapshot.get("counters", {}).items():
                metric_rows.append(
                    (run_id, name, "counter", float(value)) + (None,) * 7
                )
            for name, value in snapshot.get("gauges", {}).items():
                metric_rows.append(
                    (run_id, name, "gauge", float(value)) + (None,) * 7
                )
            for name, data in snapshot.get("histograms", {}).items():
                h = Histogram.from_dict(data)
                metric_rows.append(
                    (
                        run_id,
                        name,
                        "histogram",
                        None,
                        h.count,
                        h.total,
                        h.min if h.count else 0.0,
                        h.max if h.count else 0.0,
                        h.quantile(0.50),
                        h.quantile(0.95),
                        h.quantile(0.99),
                    )
                )
            self._conn.executemany(
                "INSERT INTO metrics (run_id, name, kind, value, count, total,"
                " min, max, p50, p95, p99) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                metric_rows,
            )
            self._conn.executemany(
                "INSERT INTO spans (run_id, name, start, dur, depth, parent, attrs)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        run_id,
                        e.get("name"),
                        e.get("start"),
                        e.get("dur"),
                        e.get("depth"),
                        e.get("parent"),
                        json.dumps(e.get("attrs") or {}),
                    )
                    for e in snapshot.get("events", [])
                ],
            )

    # -- bench samples -------------------------------------------------
    def record_bench(self, payload: Mapping[str, Any], quick: bool = False) -> int:
        """Record one bench payload as a flattened sample batch; returns its id.

        The batch id groups every sample of one ``benchmarks/e2e/run.py
        --record`` invocation; ``db gate`` judges the newest batch against
        the batches before it.
        """
        samples = flatten_bench(payload)
        stamp, chash = utc_now(), code_hash()
        with self._write():
            row = self._conn.execute(
                "SELECT COALESCE(MAX(batch), 0) + 1 FROM bench_samples"
            ).fetchone()
            batch = int(row[0])
            self._conn.executemany(
                "INSERT INTO bench_samples (batch, recorded_utc, code_hash,"
                " quick, section, subject, metric, value)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                [(batch, stamp, chash, int(quick)) + sample for sample in samples],
            )
        return batch

    def bench_history(
        self,
        section: str,
        subject: str,
        metric: str,
        before_batch: int | None = None,
        last: int = 5,
    ) -> list[float]:
        """The newest-first values of one bench metric, optionally bounded.

        ``before_batch`` excludes that batch and everything after it --
        the shape the gate needs when judging the latest batch against
        its own history.
        """
        sql = (
            "SELECT value FROM bench_samples WHERE section = ? AND subject = ?"
            " AND metric = ?"
        )
        params: list[Any] = [section, subject, metric]
        if before_batch is not None:
            sql += " AND batch < ?"
            params.append(before_batch)
        sql += " ORDER BY batch DESC LIMIT ?"
        params.append(last)
        return [float(r[0]) for r in self._conn.execute(sql, params)]

    def latest_bench_batch(self) -> int | None:
        """The newest bench batch id, or ``None`` when nothing is recorded."""
        row = self._conn.execute("SELECT MAX(batch) FROM bench_samples").fetchone()
        return int(row[0]) if row[0] is not None else None

    def bench_batch(self, batch: int) -> list[tuple[str, str, str, float]]:
        """Every ``(section, subject, metric, value)`` sample of one batch."""
        return [
            (r["section"], r["subject"], r["metric"], float(r["value"]))
            for r in self._conn.execute(
                "SELECT section, subject, metric, value FROM bench_samples"
                " WHERE batch = ? ORDER BY section, subject, metric",
                (batch,),
            )
        ]

    # -- queries -------------------------------------------------------
    def runs(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Newest-first run summaries with row/metric counts."""
        sql = (
            "SELECT r.*,"
            " (SELECT COUNT(*) FROM rows WHERE run_id = r.id) AS n_rows,"
            " (SELECT COUNT(*) FROM metrics WHERE run_id = r.id) AS n_metrics,"
            " (SELECT COUNT(*) FROM spans WHERE run_id = r.id) AS n_spans"
            " FROM runs r ORDER BY r.id DESC"
        )
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return [dict(r) for r in self._conn.execute(sql)]

    def run(self, run_id: int) -> dict[str, Any]:
        """One run's summary dict; raises :class:`ExperimentDBError` if absent."""
        row = self._conn.execute(
            "SELECT * FROM runs WHERE id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise ExperimentDBError(f"no run {run_id} in {self.path}")
        return dict(row)

    def latest_run_id(self) -> int | None:
        """The newest run id, or ``None`` for an empty database."""
        row = self._conn.execute("SELECT MAX(id) FROM runs").fetchone()
        return int(row[0]) if row[0] is not None else None

    def rows(self, run_id: int) -> list[dict[str, Any]]:
        """A run's recorded campaign rows with decoded payloads, in order."""
        out = []
        for r in self._conn.execute(
            "SELECT * FROM rows WHERE run_id = ? ORDER BY idx, key", (run_id,)
        ):
            rec = dict(r)
            rec["payload"] = json.loads(rec["payload"]) if rec["payload"] else None
            out.append(rec)
        return out

    def run_snapshot(self, run_id: int) -> dict[str, Any]:
        """Rebuild a registry-snapshot dict from a run's stored metrics.

        The inverse of :meth:`finish_run`: the returned shape feeds
        :func:`repro.obs.report.render_report` directly, which is how
        ``repro-eda stats --db`` re-renders a historical run report.
        Histogram entries carry stored ``p50``/``p95``/``p99`` instead of
        a sample reservoir.
        """
        snap: dict[str, Any] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "events": [],
        }
        for r in self._conn.execute(
            "SELECT * FROM metrics WHERE run_id = ?", (run_id,)
        ):
            if r["kind"] == "counter":
                snap["counters"][r["name"]] = r["value"]
            elif r["kind"] == "gauge":
                snap["gauges"][r["name"]] = r["value"]
            else:
                snap["histograms"][r["name"]] = {
                    "count": r["count"],
                    "total": r["total"],
                    "min": r["min"],
                    "max": r["max"],
                    "p50": r["p50"],
                    "p95": r["p95"],
                    "p99": r["p99"],
                }
        for r in self._conn.execute(
            "SELECT * FROM spans WHERE run_id = ? ORDER BY start", (run_id,)
        ):
            snap["events"].append(
                {
                    "name": r["name"],
                    "start": r["start"],
                    "dur": r["dur"],
                    "depth": r["depth"],
                    "parent": r["parent"],
                    "attrs": json.loads(r["attrs"]) if r["attrs"] else {},
                }
            )
        return snap

    def metric_trend(self, name: str, last: int | None = None) -> list[dict[str, Any]]:
        """Per-run history of one metric, oldest first.

        Counters and gauges contribute their scalar value; histograms
        contribute their count (with mean/p50 carried alongside), so any
        recorded metric name can be trended.
        """
        sql = (
            "SELECT m.run_id, r.started_utc, r.code_hash, r.kind, r.label,"
            " r.kernel, r.executor, m.kind AS metric_kind, m.value, m.count,"
            " m.total, m.p50 FROM metrics m JOIN runs r ON r.id = m.run_id"
            " WHERE m.name = ? ORDER BY m.run_id"
        )
        rows = [dict(r) for r in self._conn.execute(sql, (name,))]
        if last is not None:
            rows = rows[-last:]
        for row in rows:
            if row["metric_kind"] == "histogram":
                row["value"] = row["count"]
                row["mean"] = (
                    row["total"] / row["count"] if row["count"] else 0.0
                )
        return rows

    def query(self, sql: str) -> tuple[list[str], list[tuple]]:
        """Run one read-only SQL statement; returns (column names, rows).

        The statement runs under ``PRAGMA query_only``, so a write raises
        :class:`ExperimentDBError` instead of being silently rolled back.
        """
        self._conn.execute("PRAGMA query_only = ON")
        try:
            cur = self._conn.execute(sql)
            columns = [d[0] for d in cur.description] if cur.description else []
            return columns, [tuple(r) for r in cur.fetchall()]
        except (sqlite3.Error, sqlite3.Warning) as exc:
            raise ExperimentDBError(f"query failed: {exc}") from exc
        finally:
            if self._conn.in_transaction:
                self._conn.rollback()
            self._conn.execute("PRAGMA query_only = OFF")


class _WriteTxn:
    """``BEGIN IMMEDIATE`` transaction with retry on transient locks."""

    __slots__ = ("_conn",)

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn

    def __enter__(self) -> sqlite3.Connection:
        for delay in _RETRY_DELAYS:
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                return self._conn
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) and "busy" not in str(exc):
                    raise
                time.sleep(delay)
        self._conn.execute("BEGIN IMMEDIATE")  # last try: let it raise
        return self._conn

    def __exit__(self, exc_type: object, *exc: object) -> None:
        if exc_type is None:
            self._conn.execute("COMMIT")
        else:
            self._conn.execute("ROLLBACK")


def resolve_path(explicit: str | None = None) -> str | None:
    """The database path in effect: an explicit one, else ``REPRO_DB``."""
    return explicit or os.environ.get(ENV_VAR) or None
