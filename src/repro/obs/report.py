"""Run-report formatter: the story of a generation run in plain text.

Turns a :class:`repro.obs.registry.MetricsRegistry` (or a snapshot dict,
possibly merged from many worker processes) into the report printed by
``repro-eda generate --stats`` / ``repro-eda table --stats``, and by
``repro-eda stats --db`` from a stored run's snapshot:

* a per-phase time breakdown from the ``span.*`` duration histograms
  (count, total seconds, share of the instrumented wall time); value
  histograms render count/mean/min/max plus p50/p95/p99 estimates from
  the :class:`repro.obs.registry.Histogram` quantile reservoir;
* curated sections for the quantities the Fig 4.9 construction loop is
  otherwise opaque about -- seeds tried/accepted and per-segment trial
  counts, lane truncation counts and the truncated-length distribution,
  faults graded per PPSFP block, compile-cache hits/misses, packed-kernel
  call volume, TPG/LFSR expansion counts;
* an "other" section for any metric an instrumented module added that the
  curated layout does not know about, so new counters surface without a
  formatter change.

The "experiment runner" section also carries the failure story of a
campaign (:mod:`repro.experiments.runner`): ``runner.timeouts``,
``runner.worker_crashes`` / ``runner.worker_respawns`` and
``runner.task_failures`` land there by prefix, next to
``runner.tasks_completed``.

The formatter is read-only and stdlib-only; golden-string tests pin the
layout (``tests/test_obs.py``).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.obs.registry import Histogram, MetricsRegistry

#: Curated section layout: (title, metric-name prefix).  Metrics are
#: matched by longest prefix; anything unmatched lands in "other".
SECTIONS: tuple[tuple[str, str], ...] = (
    ("generation (Fig 4.9 construction)", "gen."),
    ("fault grading (PPSFP)", "fsim."),
    ("compiled circuit IR", "compile."),
    ("packed word kernel", "bitsim."),
    ("test pattern generation", "tpg."),
    ("LFSR stepping", "lfsr."),
    ("TPDF pipeline", "tpdf."),
    ("experiment runner", "runner."),
)


def _fmt_num(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.3f}"
    return f"{int(value)}"


def hist_quantiles(h: Mapping[str, Any]) -> tuple[float, float, float] | None:
    """p50/p95/p99 estimates of a histogram dict, or ``None`` if unavailable.

    Reads the quantile reservoir a live :class:`Histogram` snapshot
    carries (``samples``); falls back to precomputed ``p50``/``p95``/
    ``p99`` keys, the shape :mod:`repro.expdb` stores and hands back when
    a report is re-rendered from the experiment database.
    """
    samples = h.get("samples")
    if samples:
        hist = Histogram.from_dict({**h, "samples": samples})
        return (hist.quantile(0.50), hist.quantile(0.95), hist.quantile(0.99))
    if h.get("p50") is not None:
        return (float(h["p50"]), float(h.get("p95", 0.0)), float(h.get("p99", 0.0)))
    return None


def _fmt_hist(h: Mapping[str, float]) -> str:
    count = int(h["count"])
    if not count:
        return "empty"
    quantiles = hist_quantiles(h)
    q_txt = ""
    if quantiles is not None:
        q_txt = (
            f"p50={quantiles[0]:.3g}  p95={quantiles[1]:.3g}  "
            f"p99={quantiles[2]:.3g}  "
        )
    return (
        f"n={count}  mean={h['total'] / count:.3g}  {q_txt}"
        f"min={h['min']:.3g}  max={h['max']:.3g}  total={h['total']:.4g}"
    )


def _as_snapshot(source: MetricsRegistry | Mapping[str, Any]) -> dict[str, Any]:
    if isinstance(source, MetricsRegistry):
        return source.snapshot()
    return {
        "counters": dict(source.get("counters", {})),
        "gauges": dict(source.get("gauges", {})),
        "histograms": {
            k: (v.to_dict() if isinstance(v, Histogram) else dict(v))
            for k, v in source.get("histograms", {}).items()
        },
        "events": list(source.get("events", [])),
    }


def render_report(source: MetricsRegistry | Mapping[str, Any], title: str = "run report") -> str:
    """Render the full run report for a registry or snapshot."""
    snap = _as_snapshot(source)
    counters = snap["counters"]
    gauges = snap["gauges"]
    hists = snap["histograms"]
    lines: list[str] = [title, "=" * len(title)]

    spans = {
        name[len("span."):]: h for name, h in hists.items() if name.startswith("span.")
    }
    if spans:
        wall = max((h["total"] for h in spans.values()), default=0.0)
        lines += ["", "per-phase time breakdown", f"  {'phase':26s} {'count':>7s} {'total s':>9s} {'share %':>8s}"]
        for name, h in sorted(spans.items(), key=lambda kv: -kv[1]["total"]):
            share = 100.0 * h["total"] / wall if wall else 0.0
            lines.append(f"  {name:26s} {int(h['count']):7d} {h['total']:9.3f} {share:8.1f}")

    plain_hists = {k: v for k, v in hists.items() if not k.startswith("span.")}
    used: set[str] = set()

    def match(name: str) -> str | None:
        best = None
        for _, prefix in SECTIONS:
            if name.startswith(prefix) and (best is None or len(prefix) > len(best)):
                best = prefix
        return best

    for section_title, prefix in SECTIONS:
        c_rows = sorted(k for k in counters if match(k) == prefix)
        g_rows = sorted(k for k in gauges if match(k) == prefix)
        h_rows = sorted(k for k in plain_hists if match(k) == prefix)
        if not (c_rows or g_rows or h_rows):
            continue
        lines += ["", section_title]
        for k in c_rows:
            lines.append(f"  {k[len(prefix):]:26s} {_fmt_num(counters[k])}")
        for k in g_rows:
            lines.append(f"  {k[len(prefix):]:26s} {gauges[k]:g}")
        for k in h_rows:
            lines.append(f"  {k[len(prefix):]:26s} {_fmt_hist(plain_hists[k])}")
        used.update(c_rows)
        used.update(g_rows)
        used.update(h_rows)

    other_c = sorted(k for k in counters if k not in used and match(k) is None)
    other_g = sorted(k for k in gauges if k not in used and match(k) is None)
    other_h = sorted(k for k in plain_hists if k not in used and match(k) is None)
    if other_c or other_g or other_h:
        lines += ["", "other"]
        for k in other_c:
            lines.append(f"  {k:26s} {_fmt_num(counters[k])}")
        for k in other_g:
            lines.append(f"  {k:26s} {gauges[k]:g}")
        for k in other_h:
            lines.append(f"  {k:26s} {_fmt_hist(plain_hists[k])}")

    n_events = len(snap["events"])
    if n_events:
        lines += ["", f"{n_events} trace span(s) recorded (store with --db, view with `repro-eda stats --db`)"]
    if len(lines) == 2:
        lines += ["", "no metrics recorded (was observability enabled?)"]
    return "\n".join(lines)
