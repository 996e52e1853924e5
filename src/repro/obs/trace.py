"""Span-based tracing: nested timed regions recorded as trace events.

A span is a timed region of the generation/simulation stack::

    with obs.span("grade", circuit=name):
        ...

On exit the span records a trace event (name, start offset, duration,
nesting depth, parent span, free-form attrs) into the process's
:class:`repro.obs.registry.MetricsRegistry` plus a ``span.<name>``
duration histogram, so the same instrumentation feeds both the per-phase
time breakdown of the run report and the span tree.  ``start`` is
seconds since the registry epoch (per process -- merged worker events
keep their own epoch and carry a ``task`` attr naming the worker's unit
of work).

``repro-eda generate|table --db PATH`` stores a run's events in the
experiment database, and ``repro-eda stats --db PATH`` renders them
with :func:`render_trace`.
"""

from __future__ import annotations

import time
from typing import Any, Mapping, Sequence

from repro.obs.registry import MetricsRegistry


class Span:
    """Context manager timing one region against a registry.

    With ``force=True`` the span measures wall time even when the
    registry is disabled (``elapsed`` is always valid after exit) but
    records nothing -- the form :mod:`repro.atpg.tpdf` uses so its
    reported runtimes come from the same clock whether or not tracing is
    on.  Without ``force`` construction is only reached when the registry
    is enabled (:func:`repro.obs.span` hands out :data:`NULL_SPAN`
    otherwise).
    """

    __slots__ = ("registry", "name", "attrs", "force", "start", "elapsed")

    def __init__(
        self,
        registry: MetricsRegistry,
        name: str,
        attrs: Mapping[str, Any],
        force: bool = False,
    ) -> None:
        self.registry = registry
        self.name = name
        self.attrs = attrs
        self.force = force
        self.start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Span":
        if self.registry.enabled:
            self.registry.span_enter(self.name)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed = time.perf_counter() - self.start
        if self.registry.enabled:
            self.registry.span_exit(self.name, self.start, self.elapsed, self.attrs)


class NullSpan:
    """The do-nothing span handed out while tracing is disabled.

    One shared instance (:data:`NULL_SPAN`); entering costs two method
    calls and no timing.  ``elapsed`` reads 0.0 -- callers that need the
    duration regardless use :func:`repro.obs.timed` instead.
    """

    __slots__ = ()

    elapsed = 0.0

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


#: Shared disabled-path span (allocation-free).
NULL_SPAN = NullSpan()


def render_trace(events: Sequence[Mapping[str, Any]], limit: int | None = None) -> str:
    """Render span events as an indented text tree plus a per-name summary.

    Events print grouped by their ``task`` attr, untagged first, and in
    start order within a group -- each worker's ``start`` counts from its
    own epoch, so only one task's starts compare.  Each line is indented
    by nesting depth, with duration in milliseconds and the attrs inline;
    ``limit`` truncates the tree (the summary always covers everything).
    """

    def order(event: Mapping[str, Any]) -> tuple:
        task = (event.get("attrs") or {}).get("task", "")
        return task, event.get("start", 0.0), event.get("depth", 0)

    lines: list[str] = []
    ordered = sorted(events, key=order)
    shown = ordered if limit is None else ordered[:limit]
    for event in shown:
        attrs = event.get("attrs") or {}
        attr_txt = " ".join(f"{k}={v}" for k, v in attrs.items())
        lines.append(
            "  " * int(event.get("depth", 0))
            + f"{event['name']}  {1e3 * event.get('dur', 0.0):.2f} ms"
            + (f"  [{attr_txt}]" if attr_txt else "")
        )
    if limit is not None and len(ordered) > limit:
        lines.append(f"... {len(ordered) - limit} more spans")
    totals: dict[str, list[float]] = {}
    for event in ordered:
        agg = totals.setdefault(event["name"], [0, 0.0])
        agg[0] += 1
        agg[1] += event.get("dur", 0.0)
    if totals:
        lines.append("")
        lines.append(f"{'span':28s} {'count':>7s} {'total s':>10s} {'mean ms':>10s}")
        for name, (count, total) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
            lines.append(
                f"{name:28s} {int(count):7d} {total:10.3f} {1e3 * total / count:10.2f}"
            )
    return "\n".join(lines)
