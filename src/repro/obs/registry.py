"""Process-local metrics registry: counters, gauges, value histograms.

The registry is the passive half of the observability subsystem
(:mod:`repro.obs`): a plain in-process store that instrumented code writes
into and the run-report formatter (:mod:`repro.obs.report`) reads out of.
Everything is standard-library only and JSON-serializable, because
registries cross process boundaries: each worker process of the
experiment runner (:mod:`repro.experiments.runner`) serializes its
registry with :meth:`MetricsRegistry.snapshot` and the parent folds it
back in with :meth:`MetricsRegistry.merge`.

Cost model (the <2% overhead budget ``benchmarks/obs_overhead.py`` measures):

* **disabled** -- every instrumented site guards on the
  :attr:`MetricsRegistry.enabled` attribute (or calls a method that
  early-returns on it), so the disabled path is one attribute lookup and
  a predictable branch;
* **enabled** -- instrumentation is *coarse-grained by convention*: sites
  record per packed simulation, per grading chunk, per seed trial --
  never per gate or per cycle -- so even the enabled path stays within
  the budget.
"""

from __future__ import annotations

import random
import time
from typing import Any, Iterator, Mapping

#: Reservoir size backing histogram quantile estimates.  512 samples keep
#: p99 meaningful (≈5 samples above it) while a snapshot stays a few KB.
RESERVOIR_CAP = 512


class Histogram:
    """Streaming summary of observed values: count, sum, min, max, quantiles.

    Used both for timing distributions (span durations in seconds) and
    value distributions (truncated segment lengths, seeds per segment).
    Merging two histograms is exact for count/total/min/max, which is what
    makes cross-process aggregation lossless for those statistics.

    Quantiles (:meth:`quantile`, surfaced as p50/p95/p99 in the run
    report) are *estimates* from a bounded reservoir of observed values:
    exact until :data:`RESERVOIR_CAP` observations, then maintained by
    reservoir sampling with a fixed-seed PRNG so the same observation
    stream always yields the same estimate.  Merging concatenates the two
    reservoirs and deterministically resamples when over capacity, so
    cross-process quantiles stay representative (not exact).
    """

    __slots__ = ("count", "total", "min", "max", "samples", "_rng")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples: list[float] = []
        self._rng = random.Random(0x5EED)

    def observe(self, value: float) -> None:
        """Fold one value into the summary."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        samples = self.samples
        if len(samples) < RESERVOIR_CAP:
            samples.append(value)
        else:
            j = self._rng.randrange(self.count)
            if j < RESERVOIR_CAP:
                samples[j] = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observed values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1) of the observed values.

        Nearest-rank over the reservoir: exact while fewer than
        :data:`RESERVOIR_CAP` values have been observed, an estimate
        after.  Returns 0.0 for an empty histogram.
        """
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = max(0, min(len(ordered) - 1, round(q * len(ordered)) - 1))
        return ordered[rank]

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "samples": list(self.samples),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output.

        Dicts written before quantile support (no ``samples`` key) load
        fine; their quantiles simply read 0.0.
        """
        h = cls()
        h.count = int(data["count"])
        h.total = float(data["total"])
        if h.count:
            h.min = float(data["min"])
            h.max = float(data["max"])
        h.samples = [float(v) for v in data.get("samples", ())][:RESERVOIR_CAP]
        return h

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's summary into this one."""
        if not other.count:
            return
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        combined = self.samples + other.samples
        if len(combined) > RESERVOIR_CAP:
            combined = self._rng.sample(combined, RESERVOIR_CAP)
        self.samples = combined

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram(count={self.count}, total={self.total:g}, "
            f"min={self.min:g}, max={self.max:g})"
        )


class MetricsRegistry:
    """Counters, gauges, histograms, and completed span events.

    One instance per process (module-level singleton :data:`repro.obs.OBS`);
    tests may build private instances.  All mutators early-return when
    :attr:`enabled` is false, so a disabled registry costs one attribute
    load per instrumented site.

    Attributes
    ----------
    enabled:
        Master switch.  Hot code guards on this attribute directly
        (``if OBS.enabled: ...``).
    counters:
        Monotonic named totals (``int`` or ``float``).
    gauges:
        Last-written named values; merged with ``max`` so the result is
        order-independent across workers.
    histograms:
        Named :class:`Histogram` instances.
    events:
        Completed span events in completion order (:mod:`repro.obs.trace`);
        a ``--db`` run stores them as its ``spans`` rows.
    """

    __slots__ = ("enabled", "counters", "gauges", "histograms", "events", "_stack", "epoch")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.events: list[dict[str, Any]] = []
        self._stack: list[str] = []
        self.epoch = time.perf_counter()

    # -- mutation ----------------------------------------------------------
    def reset(self) -> None:
        """Drop all recorded data (the enabled flag is unchanged)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.events.clear()
        self._stack.clear()
        self.epoch = time.perf_counter()

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (no-op while disabled)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (no-op while disabled)."""
        if not self.enabled:
            return
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name`` (no-op while disabled)."""
        if not self.enabled:
            return
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram()
        h.observe(value)

    # -- span bookkeeping (driven by repro.obs.trace.Span) -----------------
    def span_enter(self, name: str) -> int:
        """Push a span onto the nesting stack; returns its depth."""
        depth = len(self._stack)
        self._stack.append(name)
        return depth

    def span_exit(self, name: str, start: float, elapsed: float, attrs: Mapping[str, Any]) -> None:
        """Pop a span and record its event + duration histogram."""
        stack = self._stack
        depth = len(stack) - 1
        parent = stack[-2] if depth > 0 else None
        stack.pop()
        self.observe(f"span.{name}", elapsed)
        self.events.append(
            {
                "name": name,
                "start": round(start - self.epoch, 6),
                "dur": round(elapsed, 6),
                "depth": depth,
                "parent": parent,
                "attrs": dict(attrs),
            }
        )

    # -- serialization and merging ----------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-serializable dump of everything recorded so far.

        The shape crossing the process boundary: plain dicts and
        lists, no repro types, so any pickle/json transport works.
        """
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: h.to_dict() for k, h in self.histograms.items()},
            "events": [dict(e) for e in self.events],
        }

    def merge(self, snap: Mapping[str, Any], task: str | None = None) -> None:
        """Fold a :meth:`snapshot` (typically from a worker process) in.

        Counters add, gauges take the max (order-independent across
        workers), histograms merge exactly, and events are appended --
        tagged with ``task`` in their attrs when given, so a merged trace
        still says which worker produced which span.  Merging ignores the
        enabled flag: results from a worker are never silently dropped.
        """
        for name, v in snap.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + v
        for name, v in snap.get("gauges", {}).items():
            self.gauges[name] = max(self.gauges.get(name, float("-inf")), v)
        for name, data in snap.get("histograms", {}).items():
            h = self.histograms.get(name)
            if h is None:
                h = self.histograms[name] = Histogram()
            h.merge(Histogram.from_dict(data))
        for event in snap.get("events", []):
            event = dict(event)
            if task is not None:
                event["attrs"] = {**event.get("attrs", {}), "task": task}
            self.events.append(event)

    def __iter__(self) -> Iterator[str]:  # pragma: no cover - convenience
        return iter(sorted({*self.counters, *self.gauges, *self.histograms}))
