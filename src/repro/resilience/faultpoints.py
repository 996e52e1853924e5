"""Deterministic fault injection: named crash/hang/error/flaky points.

Resilience code that is only ever exercised by real failures is
unverifiable; this module makes every failure mode drivable on demand.
A *fault point* is a named site inside the task execution path (the
runner installs one called ``runner.task`` around every task body);
installing a spec arms it for matching task keys::

    REPRO_FAULT='runner.task:s1423:crash_once' repro-eda table 4.3 --jobs 2

Spec grammar -- comma-separated ``point:key_substring:mode`` triples.
Process-fault modes:

``crash`` / ``crash_once``
    Hard worker death (``os._exit``) -- the process dies without a
    traceback, exactly like a segfaulting or OOM-killed worker.  Inline
    (no pool) it raises :class:`InjectedFault` instead so the host
    process survives.  ``_once`` variants fire only on attempt 0, so the
    retry succeeds.
``hang`` / ``hang_once``
    Sleep for :data:`HANG_SECONDS` -- long enough that only the pool
    watchdog's ``timeout_s`` kill ends the attempt.  Use with
    ``--timeout``, which runs the attempt on a worker the watchdog can
    kill at any ``--jobs``; without one nothing preempts the sleep.
``error`` / ``error_once``
    Raise :class:`InjectedFault` (an ordinary exception a worker
    survives and reports).
``flaky<N>``
    Raise :class:`InjectedFault` on attempts ``0 .. N-1`` and succeed
    from attempt ``N`` on -- the flaky-then-succeed schedule.

Determinism: a process-fault decision is a pure function of (point,
task key, attempt number); there is no probabilistic mode, so an
injected campaign is exactly reproducible and its final table can be
asserted byte-identical to an uninjected run.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass

#: Environment variable carrying the default fault spec.
ENV_VAR = "REPRO_FAULT"

#: How long a ``hang`` point sleeps; far beyond any sane ``timeout_s``.
HANG_SECONDS = 3600.0

_MODE_RE = re.compile(r"^(crash|hang|error)(_once)?$|^flaky(\d+)$")


class InjectedFault(RuntimeError):
    """The exception raised by ``error``/``flaky`` points (and inline crashes)."""


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: fires at ``point`` for task keys containing ``key``."""

    point: str
    key: str
    mode: str


_active: list[FaultSpec] | None = None  # None = env not consulted yet


def parse(spec: str) -> list[FaultSpec]:
    """Parse a spec string; raises ``ValueError`` naming the bad part."""
    out: list[FaultSpec] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) != 3:
            raise ValueError(
                f"bad fault spec {part!r}: expected point:key_substring:mode"
            )
        point, key, mode = fields
        if not _MODE_RE.match(mode):
            raise ValueError(
                f"bad fault mode {mode!r} in {part!r}: expected crash[_once], "
                "hang[_once], error[_once], or flaky<N>"
            )
        out.append(FaultSpec(point=point, key=key, mode=mode))
    return out


def install(spec: str | None) -> None:
    """Arm the given spec string (``None``/empty disarms everything)."""
    global _active
    _active = parse(spec) if spec else []


def _specs() -> list[FaultSpec]:
    global _active
    if _active is None:
        _active = parse(os.environ.get(ENV_VAR, ""))
    return _active


def active_spec() -> str | None:
    """The armed set re-serialized (for threading into worker processes)."""
    specs = _specs()
    return ",".join(f"{s.point}:{s.key}:{s.mode}" for s in specs) or None


def _split_mode(mode: str) -> tuple[str, bool]:
    once = mode.endswith("_once")
    return (mode[:-5] if once else mode), once


def check(point: str, key: str, attempt: int = 0, in_worker: bool = False) -> None:
    """Fire any armed fault matching ``(point, key)`` for this ``attempt``.

    Called by the runner around every task body.  ``in_worker`` selects
    the hard-death behaviour of ``crash`` modes; inline runs get an
    :class:`InjectedFault` so the host process survives.
    """
    for spec in _specs():
        if spec.point != point or spec.key not in key:
            continue
        base, once = _split_mode(spec.mode)
        if once and attempt > 0:
            continue
        if base == "crash":
            if in_worker:
                os._exit(3)
            raise InjectedFault(f"injected crash at {point} for {key!r}")
        if base == "hang":
            time.sleep(HANG_SECONDS)
            continue
        if base == "error":
            raise InjectedFault(f"injected error at {point} for {key!r}")
        if base.startswith("flaky"):
            n = int(base[len("flaky"):])
            if attempt < n:
                raise InjectedFault(
                    f"injected flaky failure {attempt + 1}/{n} at {point} for {key!r}"
                )
