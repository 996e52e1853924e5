"""Directory-backed artifact store: content-keyed, atomic, self-healing.

One :class:`ArtifactCache` manages a directory tree of pickled artifacts::

    <root>/compiled/<key>.pkl   # CompiledCircuit lowering (schedule arrays)
    <root>/kernel/<key>.pkl     # word-kernel source + marshalled code object
    <root>/faults/<key>.pkl     # collapsed transition-fault list

``<key>`` is :func:`circuit_key`: a SHA-256 over the circuit's ``.bench``
serialization plus :func:`code_fingerprint` (a digest of the sources that
produce and consume the artifacts -- the netlist model, the technology
library, the compiled-IR lowering, and the collapsing rules).  Editing any
of those sources or the netlist content changes the key, so stale entries
are never *read*; they are simply orphaned until ``repro-eda cache clear``.

Robustness contract (every consumer relies on it):

* **atomic writes** -- an entry is staged to a temp file in the same
  directory and published with ``os.replace``, so readers never observe a
  half-written pickle, even across processes;
* **corrupt or incompatible entries are silently rebuilt** -- any failure
  to read, unpickle, validate, or reconstruct an entry is treated as a
  miss (the broken file is deleted best-effort) and the caller rebuilds
  from source;
* **best-effort storage** -- a full disk or unwritable directory degrades
  to "no cache", never to an error.

Kernel entries additionally embed ``importlib.util.MAGIC_NUMBER``:
marshalled code objects are bytecode-version specific, so an entry written
by a different interpreter is a miss rather than a crash.

Observability: ``cache.hits`` / ``cache.misses`` / ``cache.stores`` /
``cache.rebuilds`` counters (rendered as the "artifact cache" section of
``--stats`` reports).

Sharing: pool workers (``--jobs``, ``--shards``) inherit the directory
through ``REPRO_CACHE_DIR``, so every process of a campaign warm-starts
compiled IR, kernels, and fault lists from the same storage.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import marshal
import os
import pickle
import tempfile
from pathlib import Path
from types import CodeType
from typing import Any

from repro import obs

#: Bumped when the payload layout changes; old entries become misses.
ARTIFACT_SCHEMA = 1

#: Artifact kinds, in the order ``repro-eda cache stats`` reports them;
#: every kind is keyed by :func:`circuit_key`.
KINDS = ("compiled", "kernel", "faults")

#: Sources folded into every cache key: the artifact producers/consumers.
_FINGERPRINT_MODULES = (
    "repro.cache.store",
    "repro.circuits.library",
    "repro.core.compiled",
    "repro.faults.collapse",
)

_code_fingerprint: str | None = None


def code_fingerprint() -> str:
    """Digest of the artifact-producing sources, part of every cache key.

    Hashing the source files of the lowering, collapsing, library, and
    store modules means a code change that could alter an artifact's
    meaning automatically invalidates every existing entry -- the "code
    version" component of the cache key.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        digest = hashlib.sha256()
        digest.update(f"schema={ARTIFACT_SCHEMA}".encode("ascii"))
        for name in _FINGERPRINT_MODULES:
            module = importlib.import_module(name)
            digest.update(b"\x00")
            digest.update(Path(module.__file__).read_bytes())
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


def circuit_key(circuit) -> str:
    """Content hash naming a circuit's cached artifacts.

    SHA-256 over the circuit's ``.bench`` serialization plus
    :func:`code_fingerprint`, memoized per :attr:`Circuit.version` so
    repeated cache probes of an unmodified netlist hash only once.
    """
    version = circuit.version
    cached = getattr(circuit, "_artifact_key", None)
    if cached is not None and cached[0] == version:
        return cached[1]
    from repro.circuits import bench

    digest = hashlib.sha256()
    digest.update(code_fingerprint().encode("ascii"))
    digest.update(b"\n")
    digest.update(bench.dumps(circuit).encode("utf-8"))
    key = digest.hexdigest()
    circuit._artifact_key = (version, key)
    return key


class ArtifactCache:
    """Persistent artifact store rooted at one directory (module docstring)."""

    def __init__(self, root: str | os.PathLike) -> None:
        """Bind the cache to ``root``; the directory is created on first store."""
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Typed entry points
    # ------------------------------------------------------------------
    def load_compiled(self, circuit):
        """A warm :class:`repro.core.compiled.CompiledCircuit`, or ``None``."""
        key = circuit_key(circuit)
        payload = self._read("compiled", key)
        compiled = None
        if payload is not None:
            from repro.core.compiled import CompiledCircuit

            try:
                compiled = CompiledCircuit.from_artifact(
                    circuit, circuit.version, payload["artifact"]
                )
            except Exception:
                self._drop("compiled", key)
        self._tally(compiled is not None)
        return compiled

    def store_compiled(self, circuit, compiled) -> None:
        """Persist a compiled circuit's lowering under the circuit's key."""
        self._write(
            "compiled",
            circuit_key(circuit),
            {"schema": ARTIFACT_SCHEMA, "artifact": compiled.to_artifact()},
        )

    def load_kernel(self, circuit) -> CodeType | None:
        """The circuit's word-kernel code object, or ``None`` on any mismatch."""
        key = circuit_key(circuit)
        payload = self._read("kernel", key)
        code = None
        if payload is not None:
            try:
                if payload["magic"] != importlib.util.MAGIC_NUMBER:
                    raise ValueError("bytecode magic mismatch")
                code = marshal.loads(payload["code"])
            except Exception:
                self._drop("kernel", key)
                code = None
        self._tally(code is not None)
        return code

    def store_kernel(self, circuit, source: str, code: CodeType) -> None:
        """Persist the generated word-kernel source and its compiled code."""
        self._write(
            "kernel",
            circuit_key(circuit),
            {
                "schema": ARTIFACT_SCHEMA,
                "magic": importlib.util.MAGIC_NUMBER,
                "source": source,
                "code": marshal.dumps(code),
            },
        )

    def load_collapsed(self, circuit):
        """The circuit's collapsed transition-fault list, or ``None``."""
        key = circuit_key(circuit)
        payload = self._read("faults", key)
        faults = None
        if payload is not None:
            from repro.faults.models import TransitionFault

            try:
                faults = [
                    TransitionFault(line=line, direction=direction)
                    for line, direction in payload["faults"]
                ]
            except Exception:
                self._drop("faults", key)
                faults = None
        self._tally(faults is not None)
        return faults

    def store_collapsed(self, circuit, faults) -> None:
        """Persist a collapsed transition-fault list under the circuit's key."""
        self._write(
            "faults",
            circuit_key(circuit),
            {
                "schema": ARTIFACT_SCHEMA,
                "faults": [(f.line, f.direction) for f in faults],
            },
        )

    # ------------------------------------------------------------------
    # Maintenance (the ``repro-eda cache`` subcommands)
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Entry and byte counts per artifact kind (plus totals)."""
        kinds: dict[str, dict[str, int]] = {}
        total_entries = total_bytes = 0
        for kind in KINDS:
            entries = n_bytes = 0
            for path in sorted((self.root / kind).glob("*.pkl")):
                try:
                    n_bytes += path.stat().st_size
                except OSError:
                    continue
                entries += 1
            kinds[kind] = {"entries": entries, "bytes": n_bytes}
            total_entries += entries
            total_bytes += n_bytes
        return {
            "root": str(self.root),
            "kinds": kinds,
            "entries": total_entries,
            "bytes": total_bytes,
        }

    def clear(self) -> int:
        """Delete every cached artifact; returns the number removed."""
        removed = 0
        for kind in KINDS:
            for path in sorted((self.root / kind).glob("*.pkl")):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        return removed

    # ------------------------------------------------------------------
    # Raw storage
    # ------------------------------------------------------------------
    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / f"{key}.pkl"

    def _read(self, kind: str, key: str) -> dict | None:
        """Load and schema-check one entry; any failure degrades to a miss."""
        path = self._path(kind, key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            payload = pickle.loads(data)
            if not isinstance(payload, dict) or payload.get("schema") != ARTIFACT_SCHEMA:
                raise ValueError("unsupported artifact schema")
        except Exception:
            self._drop(kind, key)
            return None
        return payload

    def _write(self, kind: str, key: str, payload: dict) -> None:
        """Atomically publish one entry; storage failures are swallowed."""
        path = self._path(kind, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), prefix=".stage-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return
        obs.count("cache.stores")

    def _drop(self, kind: str, key: str) -> None:
        """Remove a corrupt/incompatible entry so it is rebuilt cleanly."""
        try:
            self._path(kind, key).unlink()
        except OSError:
            pass
        obs.count("cache.rebuilds")

    def _tally(self, hit: bool) -> None:
        obs.count("cache.hits" if hit else "cache.misses")
