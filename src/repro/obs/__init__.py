"""``repro.obs`` -- zero-dependency observability for the whole stack.

Three pieces (see DESIGN.md, *Observability*):

* a process-local **metrics registry**
  (:class:`repro.obs.registry.MetricsRegistry`): counters, gauges, and
  value/timing histograms, exposed through the module-level singleton
  :data:`OBS` and the helpers below;
* **span tracing** (:mod:`repro.obs.trace`): ``with obs.span("grade",
  circuit=name):`` times a nested region and records a trace event;
* a **run-report formatter** (:mod:`repro.obs.report`) that renders the
  registry into the per-phase story ``repro-eda generate --stats`` prints.

Observability is **off by default** and costs one attribute lookup per
instrumented site while off (``if OBS.enabled: ...`` or an early-return
method).  The *enabled* path has a <2% overhead budget, measured by
``benchmarks/obs_overhead.py`` on ``repro-eda table 4.3`` with and
without ``--stats``, which is why every instrumented site records per
batch / chunk / trial rather than per gate or per cycle.

Cross-process: :func:`snapshot` / :meth:`MetricsRegistry.merge` carry a
worker's registry back to the parent (done transparently by
:func:`repro.experiments.runner.run_tasks`), so ``repro-eda table --jobs
N`` still yields one merged report.

This package sits at the very bottom of the layering -- it imports
nothing from :mod:`repro` and nothing outside the standard library -- so
any module may instrument itself without import cycles.  Collection is
switched on by :func:`enable` from code, or by the CLI's ``--stats`` and
``--db`` flags for one ``generate``/``table`` run, which starts from an
empty registry and leaves the enabled flag as it found it.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.report import render_report
from repro.obs.trace import NULL_SPAN, Span, render_trace

__all__ = [
    "OBS",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "count",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "merge",
    "observe",
    "registry",
    "render_report",
    "render_trace",
    "reset",
    "snapshot",
    "span",
    "timed",
]

#: The process-local registry every instrumented module writes into.
OBS = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-local registry singleton."""
    return OBS


def enabled() -> bool:
    """Whether metric/trace collection is currently on."""
    return OBS.enabled


def enable() -> None:
    """Turn collection on (idempotent; keeps already-recorded data)."""
    OBS.enabled = True


def disable() -> None:
    """Turn collection off (recorded data is kept until :func:`reset`)."""
    OBS.enabled = False


def reset() -> None:
    """Drop everything recorded so far (enabled flag unchanged)."""
    OBS.reset()


def count(name: str, n: float = 1) -> None:
    """Add ``n`` to counter ``name`` on the singleton."""
    OBS.count(name, n)


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` on the singleton."""
    OBS.gauge(name, value)


def observe(name: str, value: float) -> None:
    """Fold ``value`` into histogram ``name`` on the singleton."""
    OBS.observe(name, value)


def span(name: str, **attrs: Any):
    """A traced span context manager (shared no-op object while disabled).

    Usage: ``with obs.span("grade", circuit=name): ...``.  The disabled
    path allocates nothing and performs no clock reads.
    """
    if not OBS.enabled:
        return NULL_SPAN
    return Span(OBS, name, attrs)


def timed(name: str, **attrs: Any) -> Span:
    """A span that *always* measures wall time.

    Unlike :func:`span`, the returned object's ``elapsed`` is valid after
    exit even while collection is disabled (nothing is recorded then).
    This is the timer the TPDF pipeline routes its reported sub-procedure
    runtimes through, so run-time accounting uses one clock everywhere.
    """
    return Span(OBS, name, attrs, force=True)


def snapshot() -> dict[str, Any]:
    """JSON-serializable dump of the singleton registry."""
    return OBS.snapshot()


def merge(snap: Mapping[str, Any], task: str | None = None) -> None:
    """Fold a worker snapshot into the singleton registry."""
    OBS.merge(snap, task=task)
