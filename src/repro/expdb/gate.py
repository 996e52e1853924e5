"""History gate over the end-to-end benchmark's recorded batches.

``python3 benchmarks/e2e/run.py --record --db PATH`` appends one bench
batch per run.  It holds one section per workload (``table4_3``, ...:
the workload name with dots as underscores), one subject per end-to-end
metric (``wall_s``, ``cpu_s``, ``setup_s``, ``peak_rss_mb``) with leaves
``median``/``q1``/``q3``/``n``, plus ``fail_rate.value`` and the
per-layer numbers of a traced run.  :func:`gate` judges the newest batch
against the batches before it, with the bounds the benchmark declares
in ``BENCHMARK.json`` (:func:`load_bounds`):

* each ``end_to_end`` metric's ``median`` passes when
  ``value <= median(history) * (1 + bound)`` for ``better: lower``, or
  ``value >= median(history) * (1 - bound)`` for ``better: higher``;
  the history is that leaf's values in up to ``last`` earlier batches;
* ``fail_rate.value`` is judged the same way with bound 0, lower better;
* with fewer than :data:`MIN_HISTORY` earlier values a check is
  *skipped* (reported, not failed), so a fresh database never blocks;
* every other leaf -- quartiles, per-layer numbers, sections of older
  benchmarks -- is ignored.

Exposed as ``repro-eda db gate`` (see ``docs/CLI.md``), which reads
``BENCHMARK.json`` from the working directory, and exercised by CI's
``db-smoke`` job on three recorded ``run.py --quick`` batches.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.expdb.store import ExperimentDB

#: Default number of earlier batches the rolling median is taken over.
DEFAULT_LAST = 5

#: Earlier batches a metric needs before it is gated at all.
MIN_HISTORY = 2


@dataclass(frozen=True)
class Bound:
    """How one metric is judged: the better direction and the slack."""

    better: str  # 'lower' | 'higher'
    bound: float

    def limit(self, reference: float) -> float:
        """The worst value still passing against ``reference``."""
        if self.better == "lower":
            return reference * (1.0 + self.bound)
        return reference * (1.0 - self.bound)

    def passes(self, value: float, limit: float) -> bool:
        """Whether ``value`` is on the good side of ``limit``."""
        return value <= limit if self.better == "lower" else value >= limit


#: The per-workload failure rate ``run.py --record`` writes: no rise passes.
FAIL_RATE_BOUND = Bound("lower", 0.0)


def load_bounds(path: str | Path) -> dict[str, Bound]:
    """The ``end_to_end`` metrics of a ``BENCHMARK.json``, by name.

    Raises :class:`ValueError` with a one-line reason when the file is
    missing or unreadable, is not JSON, or lacks a non-empty
    ``end_to_end`` list whose entries carry ``name``, ``better``
    (``lower``/``higher``) and a non-negative ``bound``.
    """
    try:
        spec = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read benchmark spec {path}: {exc}") from exc
    metrics = spec.get("end_to_end") if isinstance(spec, dict) else None
    if not isinstance(metrics, list) or not metrics:
        raise ValueError(f"benchmark spec {path} has no end_to_end metric list")
    bounds: dict[str, Bound] = {}
    for entry in metrics:
        fields = entry if isinstance(entry, dict) else {}
        name, better, bound = (fields.get(k) for k in ("name", "better", "bound"))
        if not (
            isinstance(name, str)
            and better in ("lower", "higher")
            and isinstance(bound, (int, float))
            and not isinstance(bound, bool)
            and bound >= 0
        ):
            raise ValueError(
                f"benchmark spec {path}: end_to_end entry {json.dumps(entry)} "
                "needs a name, better 'lower' or 'higher', and a bound >= 0"
            )
        bounds[name] = Bound(better, float(bound))
    return bounds


@dataclass
class GateCheck:
    """Outcome of gating one (section, subject, metric) sample."""

    section: str
    subject: str
    metric: str
    value: float
    status: str  # 'pass' | 'fail' | 'skip'
    rule: Bound
    limit: float | None = None
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
    batch: int | None = None

    @property
    def ok(self) -> bool:
        """True when no check failed (skips do not fail the gate)."""
        return all(c.status != "fail" for c in self.checks)

    def report(self) -> str:
        """Human-readable multi-line summary, one line per check."""
        judged = "no bench batch" if self.batch is None else f"bench batch {self.batch}"
        lines = [
            f"perf gate: {judged} against the median of up to {self.last} "
            "earlier batch(es)"
        ]
        for c in self.checks:
            if c.status == "skip":
                lines.append(
                    f"  SKIP {c.label}: {c.value:.4g} ({len(c.history)} earlier "
                    f"batch(es), need {MIN_HISTORY})"
                )
                continue
            op = "<=" if c.rule.better == "lower" else ">="
            if c.status == "fail":
                op = ">" if c.rule.better == "lower" else "<"
            hist = ", ".join(f"{v:.4g}" for v in c.history)
            lines.append(
                f"  {c.status.upper():4s} {c.label}: {c.value:.4g} {op} {c.limit:.4g} "
                f"({c.rule.better} is better, bound {c.rule.bound:.0%}; history: {hist})"
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
    db: ExperimentDB, bounds: Mapping[str, Bound], last: int = DEFAULT_LAST
) -> GateResult:
    """Judge the newest bench batch against up to ``last`` earlier ones.

    ``bounds`` maps end-to-end metric names to their rule (usually
    :func:`load_bounds` of ``BENCHMARK.json``).  Raises
    :class:`ValueError` when ``last`` is below :data:`MIN_HISTORY`: such
    a window could only ever skip, so the gate would pass anything.
    """
    if last < MIN_HISTORY:
        raise ValueError(
            f"--last must be at least {MIN_HISTORY} (the gate needs "
            f"{MIN_HISTORY} earlier batches), got {last}"
        )
    batch = db.latest_bench_batch()
    if batch is None:
        return GateResult(checks=[], last=last)
    rules = {(name, "median"): rule for name, rule in bounds.items()}
    rules["fail_rate", "value"] = FAIL_RATE_BOUND
    checks: list[GateCheck] = []
    for section, subject, metric, value in db.bench_batch(batch):
        rule = rules.get((subject, metric))
        if rule is None:
            continue
        history = db.bench_history(
            section, subject, metric, before_batch=batch, last=last
        )
        limit, status = None, "skip"
        if len(history) >= MIN_HISTORY:
            limit = rule.limit(statistics.median(history))
            status = "pass" if rule.passes(value, limit) else "fail"
        checks.append(
            GateCheck(section, subject, metric, value, status, rule, limit, history)
        )
    return GateResult(checks=checks, last=last, batch=batch)
