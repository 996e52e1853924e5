"""Tests for the repro.obs observability subsystem.

Covers the metrics registry (counters/gauges/histograms, disabled no-op
path), span tracing (nesting, the rendered span tree), the run-report
formatter, and cross-process metric merging through the experiment
runner.
"""

import json
import re

import pytest

from repro import obs
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.report import render_report
from repro.obs.trace import Span, render_trace
from repro.experiments.runner import ExperimentTask, run_tasks


@pytest.fixture(autouse=True)
def clean_singleton():
    """Keep the module singleton disabled and empty around every test."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestHistogram:
    def test_observe_and_stats(self):
        h = Histogram()
        for v in (4.0, 1.0, 7.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 12.0
        assert h.min == 1.0
        assert h.max == 7.0
        assert h.mean == 4.0

    def test_empty_mean_is_zero(self):
        assert Histogram().mean == 0.0

    def test_dict_round_trip(self):
        h = Histogram()
        h.observe(2.5)
        h.observe(-1.0)
        back = Histogram.from_dict(h.to_dict())
        assert back.count == 2
        assert back.total == 1.5
        assert back.min == -1.0
        assert back.max == 2.5

    def test_merge_is_exact(self):
        a, b = Histogram(), Histogram()
        for v in (1.0, 9.0):
            a.observe(v)
        b.observe(5.0)
        a.merge(b)
        assert (a.count, a.total, a.min, a.max) == (3, 15.0, 1.0, 9.0)

    def test_merge_empty_is_noop(self):
        a = Histogram()
        a.observe(3.0)
        a.merge(Histogram())
        assert (a.count, a.min, a.max) == (1, 3.0, 3.0)

    def test_quantiles_exact_below_reservoir_cap(self):
        h = Histogram()
        for v in range(1, 101):  # 1..100, well under RESERVOIR_CAP
            h.observe(float(v))
        assert h.quantile(0.50) == 50.0
        assert h.quantile(0.95) == 95.0
        assert h.quantile(0.99) == 99.0
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 100.0

    def test_quantiles_empty_histogram_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_quantiles_approximate_past_reservoir_cap(self):
        from repro.obs.registry import RESERVOIR_CAP

        h = Histogram()
        n = RESERVOIR_CAP * 4
        for v in range(n):  # uniform 0..n-1, sampling stays representative
            h.observe(float(v))
        assert len(h.samples) <= RESERVOIR_CAP
        assert h.quantile(0.5) == pytest.approx(n / 2, rel=0.15)
        assert h.quantile(0.95) == pytest.approx(n * 0.95, rel=0.15)

    def test_quantiles_survive_dict_round_trip_and_merge(self):
        a, b = Histogram(), Histogram()
        for v in range(100):
            a.observe(float(v))
        for v in range(100, 200):
            b.observe(float(v))
        back = Histogram.from_dict(a.to_dict())
        assert back.quantile(0.5) == a.quantile(0.5)
        a.merge(b)
        assert a.quantile(0.5) == pytest.approx(100.0, rel=0.15)

    def test_from_dict_without_samples_is_backward_compatible(self):
        legacy = {"count": 3, "total": 12.0, "min": 1.0, "max": 7.0}
        h = Histogram.from_dict(legacy)
        assert (h.count, h.mean) == (3, 4.0)
        assert h.quantile(0.5) == 0.0  # no samples to estimate from


class TestRegistry:
    def test_disabled_mutators_are_noops(self):
        r = MetricsRegistry(enabled=False)
        r.count("x")
        r.gauge("g", 1.0)
        r.observe("h", 2.0)
        assert not r.counters and not r.gauges and not r.histograms

    def test_enabled_mutators_record(self):
        r = MetricsRegistry(enabled=True)
        r.count("x")
        r.count("x", 4)
        r.gauge("g", 1.0)
        r.gauge("g", 9.0)
        r.observe("h", 2.0)
        assert r.counters["x"] == 5
        assert r.gauges["g"] == 9.0
        assert r.histograms["h"].count == 1

    def test_reset_clears_but_keeps_flag(self):
        r = MetricsRegistry(enabled=True)
        r.count("x")
        r.reset()
        assert r.enabled and not r.counters

    def test_snapshot_is_json_serializable(self):
        r = MetricsRegistry(enabled=True)
        r.count("a", 2)
        r.observe("h", 1.5)
        with Span(r, "s", {"k": "v"}):
            pass
        assert json.loads(json.dumps(r.snapshot()))["counters"]["a"] == 2

    def test_merge_counters_add_gauges_max(self):
        r = MetricsRegistry(enabled=True)
        r.count("c", 3)
        r.gauge("g", 5.0)
        r.merge({"counters": {"c": 2}, "gauges": {"g": 4.0}})
        r.merge({"counters": {"c": 1}, "gauges": {"g": 8.0}})
        assert r.counters["c"] == 6
        assert r.gauges["g"] == 8.0

    def test_merge_histograms_and_tagged_events(self):
        r = MetricsRegistry(enabled=True)
        worker = MetricsRegistry(enabled=True)
        worker.observe("h", 2.0)
        with Span(worker, "w", {}):
            pass
        r.merge(worker.snapshot(), task="t1")
        assert r.histograms["h"].count == 1
        assert r.events[0]["attrs"]["task"] == "t1"

    def test_merge_order_independent(self):
        snaps = [
            {"counters": {"c": i}, "gauges": {"g": float(i)}} for i in (1, 2, 3)
        ]
        a, b = MetricsRegistry(enabled=True), MetricsRegistry(enabled=True)
        for s in snaps:
            a.merge(s)
        for s in reversed(snaps):
            b.merge(s)
        assert a.counters == b.counters
        assert a.gauges == b.gauges


class TestSpans:
    def test_span_records_event_and_histogram(self):
        r = MetricsRegistry(enabled=True)
        with Span(r, "outer", {"circuit": "s27"}):
            pass
        (event,) = r.events
        assert event["name"] == "outer"
        assert event["depth"] == 0
        assert event["parent"] is None
        assert event["attrs"] == {"circuit": "s27"}
        assert r.histograms["span.outer"].count == 1

    def test_nesting_depth_and_parent(self):
        r = MetricsRegistry(enabled=True)
        with Span(r, "outer", {}):
            with Span(r, "inner", {}):
                pass
        inner, outer = r.events
        assert (inner["depth"], inner["parent"]) == (1, "outer")
        assert (outer["depth"], outer["parent"]) == (0, None)

    def test_module_span_is_null_when_disabled(self):
        s = obs.span("anything")
        with s:
            pass
        assert s.elapsed == 0.0
        assert not obs.registry().events

    def test_timed_measures_even_when_disabled(self):
        with obs.timed("t") as t:
            sum(range(1000))
        assert t.elapsed > 0.0
        assert not obs.registry().events  # but records nothing


class TestRenderTrace:
    """The span tree ``repro-eda stats --db`` renders from stored events."""

    def test_render_trace_tree_and_summary(self):
        r = MetricsRegistry(enabled=True)
        with Span(r, "outer", {"k": "v"}):
            with Span(r, "inner", {}):
                pass
        text = render_trace(r.events)
        assert "outer" in text and "  inner" in text
        assert "[k=v]" in text
        assert "span" in text and "count" in text  # summary table header

    def test_render_trace_limit(self):
        r = MetricsRegistry(enabled=True)
        for i in range(5):
            with Span(r, f"s{i}", {}):
                pass
        text = render_trace(r.events, limit=2)
        assert "3 more spans" in text

    def test_merged_worker_spans_print_one_block_per_task(self):
        """Worker starts count from each worker's own epoch, so they interleave."""

        def worker(starts):
            events = []
            for start in starts:  # recorded on exit: the child first
                events.append({"name": "leaf", "start": start + 0.001, "dur": 0.001,
                               "depth": 1, "parent": "task.run", "attrs": {}})
                events.append({"name": "task.run", "start": start, "dur": 0.005,
                               "depth": 0, "parent": None, "attrs": {}})
            return {"events": events}

        r = MetricsRegistry(enabled=True)
        with Span(r, "table", {}):
            r.merge(worker([0.01, 0.03]), task="t/b")
            r.merge(worker([0.0, 0.02, 0.04]), task="t/a")
        tree = render_trace(r.events).split("\n\n")[0]
        assert re.sub(r"  [\d.]+ ms", "", tree).splitlines() == (
            ["table"]
            + ["task.run  [task=t/a]", "  leaf  [task=t/a]"] * 3
            + ["task.run  [task=t/b]", "  leaf  [task=t/b]"] * 2
        )


class TestRenderReport:
    def test_empty_registry(self):
        text = render_report(MetricsRegistry())
        assert "no metrics recorded" in text

    def test_sections_and_other(self):
        r = MetricsRegistry(enabled=True)
        r.count("gen.seeds_accepted", 7)
        r.count("fsim.ppsfp_passes", 3)
        r.count("mystery.metric", 1)
        r.gauge("gen.coverage_percent", 92.5)
        r.observe("gen.seeds_tried_per_segment", 4)
        text = render_report(r, title="report")
        assert text.splitlines()[0] == "report"
        assert "generation (Fig 4.9 construction)" in text
        assert "seeds_accepted" in text
        assert "fault grading (PPSFP)" in text
        assert "other" in text and "mystery.metric" in text
        assert "92.5" in text

    def test_phase_breakdown_from_spans(self):
        r = MetricsRegistry(enabled=True)
        with Span(r, "gen.run", {}):
            pass
        text = render_report(r)
        assert "per-phase time breakdown" in text
        assert "gen.run" in text
        assert "1 trace span(s) recorded" in text

    def test_accepts_snapshot_dict(self):
        r = MetricsRegistry(enabled=True)
        r.count("gen.tests_applied", 10)
        assert "tests_applied" in render_report(r.snapshot())


def _worker_task(n: int) -> int:
    """Pool-side task: records metrics into the worker's registry."""
    obs.count("test.worker_calls")
    obs.observe("test.n_values", n)
    with obs.span("test.work", n=n):
        pass
    return n * n


class TestRunnerIntegration:
    def _tasks(self, count=3):
        return [
            ExperimentTask(key=f"t{i}", fn=_worker_task, kwargs={"n": i})
            for i in range(count)
        ]

    def test_inline_results_and_metrics(self):
        obs.enable()
        assert run_tasks(self._tasks(), jobs=1) == [0, 1, 4]
        snap = obs.snapshot()
        assert snap["counters"]["test.worker_calls"] == 3
        assert snap["counters"]["runner.tasks_completed"] == 3

    def test_pool_results_match_inline(self):
        inline = run_tasks(self._tasks(), jobs=1)
        pooled = run_tasks(self._tasks(), jobs=2)
        assert inline == pooled == [0, 1, 4]

    def test_pool_merges_worker_registries(self):
        obs.enable()
        run_tasks(self._tasks(), jobs=2)
        snap = obs.snapshot()
        assert snap["counters"]["test.worker_calls"] == 3
        assert snap["counters"]["runner.worker_registries_merged"] == 3
        assert snap["histograms"]["test.n_values"]["count"] == 3
        # Worker span events come back tagged with their task key.
        tags = {
            e["attrs"].get("task")
            for e in obs.registry().events
            if e["name"] == "test.work"
        }
        assert tags == {"t0", "t1", "t2"}

    def test_pool_without_obs_returns_plain_results(self):
        assert run_tasks(self._tasks(), jobs=2) == [0, 1, 4]
        assert not obs.registry().counters

    def test_progress_callback_order(self):
        seen = []
        run_tasks(self._tasks(), jobs=2, progress=lambda i, t, o: seen.append((i, t.key, o)))
        assert seen == [(0, "t0", 0), (1, "t1", 1), (2, "t2", 4)]

    def test_progress_callback_inline(self):
        seen = []
        run_tasks(self._tasks(2), jobs=1, progress=lambda i, t, o: seen.append((t.key, o)))
        assert seen == [("t0", 0), ("t1", 1)]
