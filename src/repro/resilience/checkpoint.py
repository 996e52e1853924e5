"""Checkpoint journal: completed campaign rows as resumable JSONL.

File format (``repro-resume-v1``) -- one JSON object per line:

* a header ``{"schema": "repro-resume-v1", "fingerprint": "..."}``
  identifying the campaign configuration the rows belong to (any other
  header field, such as the ``kernel`` older journals carry, is ignored);
* one ``{"key": ..., "fingerprint": ..., "elapsed_s": ...,
  "result": "<base64 pickle>", "snapshot": {...}|null}`` row per
  completed task, appended (and flushed) the moment the task finishes,
  so a killed campaign keeps everything that was done.

The *fingerprint* is a stable hash of the campaign parameters (targets,
drivers, generator config, ...); resuming against a journal written for
different parameters raises :class:`CheckpointError` rather than
silently mixing incompatible rows.  Pure-throughput knobs are
deliberately **excluded** from fingerprints: callers normalize ``jobs``
/ ``shards`` out of the hashed config, and where the attempts ran never
enters it at all, so a journal written by a ``--jobs 2`` campaign on the
pool resumes inline under ``--jobs 1`` (or the other way round) -- same
keys, same derived seeds, same rows.
Task results are arbitrary Python objects (dataclasses holding fault
sets), so rows carry them pickled and base64-wrapped inside the JSON
envelope; ``snapshot`` is the worker's
plain-dict :meth:`repro.obs.registry.MetricsRegistry.snapshot`, merged
back on resume so ``--stats`` stays coherent across restarts.

A truncated final line (the process died mid-write) is dropped on load;
failures are *never* journaled, so ``--resume`` always re-runs failed
and unfinished rows only.
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
from pathlib import Path
from typing import Any, Mapping

from repro.expdb.store import jsonable

#: Schema tag written into (and required of) the journal header.
RESUME_SCHEMA = "repro-resume-v1"


class CheckpointError(RuntimeError):
    """Raised when a journal cannot back the requested campaign."""


def fingerprint_of(params: Any) -> str:
    """A short stable hex fingerprint of a campaign's configuration."""
    blob = json.dumps(jsonable(params), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


class CheckpointJournal:
    """Keyed row journal over one JSONL file (see module docstring)."""

    def __init__(self, path: str | Path, fingerprint: str, rows: dict[str, dict]) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._rows = rows

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls, path: str | Path, fingerprint: str, resume: bool = False
    ) -> "CheckpointJournal":
        """Open (resume) or start (truncate) a journal for this campaign.

        ``resume=True`` loads already-journaled rows so the runner can
        skip them; a missing or empty file resumes to a fresh campaign.
        ``resume=False`` always starts over, overwriting any old journal.
        """
        path = Path(path)
        rows: dict[str, dict] = {}
        if resume and path.exists() and path.stat().st_size > 0:
            with path.open("r", encoding="utf-8") as fh:
                header_line = fh.readline()
                try:
                    header = json.loads(header_line)
                except json.JSONDecodeError as exc:
                    raise CheckpointError(
                        f"{path}: not a checkpoint journal (bad header)"
                    ) from exc
                if header.get("schema") != RESUME_SCHEMA:
                    raise CheckpointError(
                        f"{path}: unsupported schema {header.get('schema')!r}, "
                        f"expected {RESUME_SCHEMA!r}"
                    )
                if header.get("fingerprint") != fingerprint:
                    raise CheckpointError(
                        f"{path}: journal belongs to a different campaign "
                        f"(fingerprint {header.get('fingerprint')} != {fingerprint}); "
                        f"drop --resume or point --checkpoint elsewhere"
                    )
                for line in fh:
                    try:
                        rec = json.loads(line)
                    except json.JSONDecodeError:
                        break  # truncated tail from a killed run: drop it
                    if rec.get("fingerprint") == fingerprint and "key" in rec:
                        rows[rec["key"]] = rec
            return cls(path, fingerprint, rows)
        header = {"schema": RESUME_SCHEMA, "fingerprint": fingerprint}
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
        return cls(path, fingerprint, rows)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def has(self, key: str) -> bool:
        """Whether a completed row for ``key`` is journaled."""
        return key in self._rows

    def result(self, key: str) -> Any:
        """The journaled result object for ``key``."""
        return pickle.loads(base64.b64decode(self._rows[key]["result"]))

    def snapshot(self, key: str) -> dict | None:
        """The journaled obs snapshot for ``key`` (``None`` if not recorded)."""
        return self._rows[key].get("snapshot")

    def record(
        self,
        key: str,
        result: Any,
        snapshot: Mapping[str, Any] | None = None,
        elapsed_s: float = 0.0,
    ) -> None:
        """Append one completed row and flush, surviving a kill right after."""
        rec = {
            "key": key,
            "fingerprint": self.fingerprint,
            "elapsed_s": round(elapsed_s, 3),
            "result": base64.b64encode(pickle.dumps(result)).decode("ascii"),
            "snapshot": dict(snapshot) if snapshot is not None else None,
        }
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")
            fh.flush()
        self._rows[key] = rec
