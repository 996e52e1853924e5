"""History-based perf regression gate over recorded bench samples.

``benchmarks/bench_kernel.py`` enforces *static* floors (fault grading
>= 3x, sharded grading >= 2x, ...) -- blunt instruments that
only catch regressions big enough to cross a hand-picked line.  This
module gates against the **rolling history** instead: for each gated
throughput metric, the current sample must reach the median of the last
``N`` recorded batches minus a tolerance.  A change that quietly costs
20% shows up immediately even while the static floor still passes.

Gated metrics are the higher-is-better speedup ratios of each bench
section (:data:`GATED_METRICS`); ratios are machine-relative, so history
recorded on one host gates runs on that host meaningfully.  Semantics:

* fewer than ``min_history`` prior batches for a metric -> that metric is
  *skipped* (reported, not failed) -- a fresh database never blocks;
* ``current >= median(history) * (1 - tolerance)`` -> pass;
* otherwise -> fail, with the observed value, the threshold, and the
  history that produced it in the report.

Exposed to operators as ``repro-eda db gate`` (see ``docs/CLI.md``) and
exercised in CI by the ``db-smoke`` job against a seeded two-run history.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.expdb.store import ExperimentDB, flatten_bench

#: Default number of prior batches the rolling median is taken over.
DEFAULT_LAST = 5

#: Default fractional slack below the rolling median (0.10 = 10%).
DEFAULT_TOLERANCE = 0.10

#: Minimum prior batches before a metric is gated at all.
DEFAULT_MIN_HISTORY = 2

#: The gated (section, metric) pairs -- every subject (circuit) a batch
#: carries for the pair is checked.  All are higher-is-better ratios.
GATED_METRICS: tuple[tuple[str, str], ...] = (
    ("sequence_simulation", "packed_per_lane_speedup"),
    ("fault_grading", "speedup"),
    ("builtin_generation", "speedup"),
    ("fault_sharding", "speedup"),
    ("cache_warm_start", "speedup"),
)


@dataclass
class GateCheck:
    """Outcome of gating one (section, subject, metric) sample."""

    section: str
    subject: str
    metric: str
    value: float
    status: str  # 'pass' | 'fail' | 'skip'
    threshold: float | None = None
    history: list[float] = field(default_factory=list)

    @property
    def label(self) -> str:
        """Dotted display name of the gated sample."""
        return f"{self.section}.{self.subject}.{self.metric}"


@dataclass
class GateResult:
    """All checks of one gate evaluation plus the overall verdict."""

    checks: list[GateCheck]
    last: int
    tolerance: float

    @property
    def ok(self) -> bool:
        """True when no check failed (skips do not fail the gate)."""
        return all(c.status != "fail" for c in self.checks)

    def report(self) -> str:
        """Human-readable multi-line summary, one line per check."""
        lines = [
            f"perf gate: rolling median of last {self.last} batch(es), "
            f"tolerance {100 * self.tolerance:.0f}%"
        ]
        for c in self.checks:
            if c.status == "skip":
                lines.append(
                    f"  SKIP {c.label}: {c.value:.3g} "
                    f"({len(c.history)} prior batch(es), need more history)"
                )
                continue
            hist = ", ".join(f"{v:.3g}" for v in c.history)
            lines.append(
                f"  {c.status.upper():4s} {c.label}: {c.value:.3g} vs "
                f"threshold {c.threshold:.3g} (history: {hist})"
            )
        n_fail = sum(1 for c in self.checks if c.status == "fail")
        n_pass = sum(1 for c in self.checks if c.status == "pass")
        n_skip = sum(1 for c in self.checks if c.status == "skip")
        lines.append(
            f"{'FAIL' if n_fail else 'PASS'}: {n_pass} passed, "
            f"{n_fail} failed, {n_skip} skipped"
        )
        return "\n".join(lines)


def gate(
    db: ExperimentDB,
    current: Mapping[str, Any] | None = None,
    last: int = DEFAULT_LAST,
    tolerance: float = DEFAULT_TOLERANCE,
    min_history: int = DEFAULT_MIN_HISTORY,
) -> GateResult:
    """Gate bench samples against the database's rolling history.

    ``current`` is a ``bench_kernel.py`` payload dict to judge; when
    ``None`` the newest recorded batch is judged against the batches
    before it.  Returns a :class:`GateResult` whose ``ok`` reflects
    whether every gated metric with enough history cleared
    ``median(history) * (1 - tolerance)``.
    """
    if current is not None:
        samples = flatten_bench(current)
        before_batch = None
    else:
        batch = db.latest_bench_batch()
        if batch is None:
            return GateResult(checks=[], last=last, tolerance=tolerance)
        samples = db.bench_batch(batch)
        before_batch = batch

    gated = set(GATED_METRICS)
    checks: list[GateCheck] = []
    for section, subject, metric, value in samples:
        if (section, metric) not in gated:
            continue
        history = db.bench_history(
            section, subject, metric, before_batch=before_batch, last=last
        )
        if len(history) < min_history:
            checks.append(
                GateCheck(section, subject, metric, value, "skip", None, history)
            )
            continue
        threshold = statistics.median(history) * (1.0 - tolerance)
        status = "pass" if value >= threshold else "fail"
        checks.append(
            GateCheck(section, subject, metric, value, status, threshold, history)
        )
    return GateResult(checks=checks, last=last, tolerance=tolerance)
