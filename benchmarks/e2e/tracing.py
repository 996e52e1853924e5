"""Per-layer tracing of one artifact run, from outside the package.

:class:`Tracer` wraps the public functions of each layer of ``repro``
and records a span per call into a layer: the layer name, start, end,
the span that caused it, and the run it belongs to.  The wrappers are
installed where callers look the names up -- every ``repro`` module
global bound to the function, and the class attribute for methods -- so
nothing under ``src/`` knows it is traced.  A call into the layer that
is already innermost is counted but opens no span of its own (e.g.
``StaEngine.ranked_faults`` calling ``StaEngine.path_delay``).

A layer's self time is its spans' durations minus the time inside
nested spans, so the self times plus the time outside any span
(``trace.unattributed_s``) add up to the traced wall clock.  Work
counters (``logic.bitsim.lane_cycles``, ``core.builtin_gen.
seeds_evaluated``, ...) are simulated statistics: for a given code and
seed they repeat exactly from run to run.

Forked pool workers inherit the wrappers but their spans die with them;
``experiments.runner.child_cpu_s`` accounts for their CPU instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[index]


def _bitsim(acc, args, kwargs, result, token) -> None:
    lanes = _arg(args, kwargs, 3, "n_lanes")
    acc.setdefault("lanes", []).append(lanes)
    acc["lane_cycles"] += lanes * len(_arg(args, kwargs, 2, "pi_word_rows"))


def _fsim_preview(acc, args, kwargs, result, token) -> None:
    acc["tests_graded"] += len(_arg(args, kwargs, 1, "tests"))
    acc["groups"] += 1
    acc["hits"] += bool(result)


def _fsim_preview_groups(acc, args, kwargs, result, token) -> None:
    groups = _arg(args, kwargs, 1, "test_groups")
    acc["tests_graded"] += sum(len(g) for g in groups)
    acc["groups"] += len(groups)
    acc["hits"] += sum(1 for s in result if s)


def _tpg_sequence(acc, args, kwargs, result, token) -> None:
    acc["vectors"] += _arg(args, kwargs, 2, "length")


def _tpg_batch(acc, args, kwargs, result, token) -> None:
    acc["vectors"] += _arg(args, kwargs, 2, "length") * len(_arg(args, kwargs, 1, "seeds"))


def _gen_before(args, kwargs) -> tuple[int, int]:
    stats = args[0].stats
    return stats.seeds_evaluated, stats.seeds_accepted


def _gen_after(acc, args, kwargs, result, token) -> None:
    stats = args[0].stats
    acc["seeds_evaluated"] += stats.seeds_evaluated - token[0]
    acc["seeds_accepted"] += stats.seeds_accepted - token[1]


def _imply(acc, args, kwargs, result, token) -> None:
    acc["conflicts"] += result is None


def _children_cpu(args=None, kwargs=None) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _runner(acc, args, kwargs, result, token) -> None:
    acc["child_cpu_s"] += _children_cpu() - token


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``attr`` is ``"func"`` or ``"Class.method"``."""

    module: str
    attr: str
    after: Callable | None = None  # (acc, args, kwargs, result, token) -> None
    before: Callable | None = None  # (args, kwargs) -> token


#: Layer name -> the public callables whose calls make up the layer.
LAYERS: dict[str, tuple[Target, ...]] = {
    "circuits": (Target("repro.circuits.benchmarks", "get_circuit"),),
    "core.compiled": (
        Target("repro.core.compiled", "compile_circuit"),
        # Word-kernel codegen runs on a circuit's first ``eval_words``.
        Target("repro.core.compiled", "CompiledCircuit._build_word_kernel"),
    ),
    "faults.collapse": (Target("repro.faults.collapse", "collapsed_transition_faults"),),
    "bist.tpg": (
        Target("repro.bist.tpg", "DevelopedTpg.sequence", _tpg_sequence),
        Target("repro.bist.tpg", "DevelopedTpg.sequence_batch", _tpg_batch),
    ),
    "logic.bitsim": (Target("repro.logic.bitsim", "simulate_packed_words", _bitsim),),
    "faults.fsim": (
        Target("repro.faults.fsim", "FaultGrader.preview", _fsim_preview),
        Target("repro.faults.fsim", "FaultGrader.preview_groups", _fsim_preview_groups),
        Target("repro.faults.fsim", "FaultGrader.commit"),
    ),
    "core.builtin_gen": (
        Target("repro.core.builtin_gen", "BuiltinGenerator.run", _gen_after, _gen_before),
    ),
    "core.embedded": (
        Target("repro.core.embedded", "compose"),
        Target("repro.core.embedded", "estimate_swa_func"),
    ),
    "bist.area": (Target("repro.bist.area", "estimate_area"),),
    "core.state_holding": (Target("repro.core.state_holding", "run_with_state_holding"),),
    "atpg.implication": (Target("repro.atpg.implication", "imply", _imply),),
    "atpg.input_assignments": (
        Target("repro.atpg.input_assignments", "compute_input_assignments"),
    ),
    "sta.engine": tuple(
        Target("repro.sta.engine", f"StaEngine.{name}")
        for name in (
            "propagate_case", "path_delay", "worst_arrival", "ranked_faults", "faults_at_least"
        )
    ),
    "paths.enumeration": tuple(
        Target("repro.paths.enumeration", name)
        for name in ("enumerate_paths", "count_paths", "k_longest_paths")
    ),
    "paths.selection": (Target("repro.paths.selection", "PathSelector.run"),),
    "experiments.runner": (
        Target("repro.experiments.runner", "run_tasks", _runner, _children_cpu),
    ),
    "experiments.format": (Target("repro.experiments.format", "render"),),
}

#: The manual span around the traced run's imports.
IMPORT_LAYER = "process.import"

#: Every per-layer metric a traced run reports: (name, unit, better).
PER_LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("process.import_s", "s", "lower"),
    *(
        metric
        for layer in LAYERS
        for metric in ((f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower"))
    ),
    ("logic.bitsim.lanes_p50", "count", "higher"),
    ("logic.bitsim.lane_cycles", "count", "lower"),
    ("logic.bitsim.ns_per_lane_cycle", "ns", "lower"),
    ("faults.fsim.tests_graded", "count", "lower"),
    ("faults.fsim.hit_ratio", "ratio", "higher"),
    ("bist.tpg.vectors", "count", "lower"),
    ("core.builtin_gen.seeds_evaluated", "count", "lower"),
    ("core.builtin_gen.seeds_accepted", "count", "lower"),
    ("core.builtin_gen.accept_ratio", "ratio", "higher"),
    ("atpg.implication.conflict_ratio", "ratio", "lower"),
    ("experiments.runner.child_cpu_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

#: Counters that must repeat exactly between runs of one code at one seed.
WORK_COUNTERS = (
    "core.builtin_gen.seeds_evaluated",
    "logic.bitsim.lane_cycles",
    "faults.fsim.tests_graded",
    "atpg.implication.calls",
)


@dataclass
class _Layer:
    calls: int = 0
    self_s: float = 0.0
    acc: Counter = field(default_factory=Counter)  # plus bitsim's "lanes" list


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Spans and per-layer statistics of one traced run."""

    def __init__(self, run: str):
        """``run`` labels every span of this run (e.g. ``table4.3/seed1``)."""
        self.run = run
        self.layers = {name: _Layer() for name in (IMPORT_LAYER, *LAYERS)}
        self.spans: list[tuple[int, str, str, float, float, int | None]] = []
        self.missing: list[str] = []
        self._stack: list[list] = []  # [layer, span id, start, nested time]
        self._patches: list[tuple[Any, str, Any]] = []
        self._active = False
        self._next_id = 0

    # -- spans -----------------------------------------------------------
    def _enter(self, layer: str) -> list:
        frame = [layer, self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, fn: str) -> None:
        end = time.perf_counter()
        self._stack.pop()
        layer, span_id, start, nested = frame
        duration = end - start
        self.layers[layer].self_s += duration - nested
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, layer, fn, start, end, parent[1] if parent else None))

    @contextmanager
    def span(self, layer: str):
        """A manual span (the traced run's import phase)."""
        self.layers[layer].calls += 1
        frame = self._enter(layer)
        try:
            yield
        finally:
            self._exit(frame, layer)

    def _wrap(self, layer: str, target: Target, original: Callable) -> Callable:
        stats = self.layers[layer]
        before, after = target.before, target.after
        fn = target.attr

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self._active:
                return original(*args, **kwargs)
            stats.calls += 1
            token = before(args, kwargs) if before else None
            if self._stack and self._stack[-1][0] == layer:
                result = original(*args, **kwargs)
            else:
                frame = self._enter(layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._exit(frame, fn)
            if after:
                after(stats.acc, args, kwargs, result, token)
            return result

        return wrapper

    # -- installation ----------------------------------------------------
    @staticmethod
    def import_layers() -> None:
        """Import every layer module (done inside the import span)."""
        for module in sorted({t.module for targets in LAYERS.values() for t in targets}):
            importlib.import_module(module)

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every target where callers look it up.

        A target the code no longer has is skipped and listed in
        :attr:`missing`, so the harness keeps working across refactors;
        its layer then reports zero calls.
        """
        modules = [
            m for name, m in list(sys.modules.items()) if name.startswith("repro") and m is not None
        ]
        for layer, targets in LAYERS.items():
            for target in targets:
                module = sys.modules.get(target.module)
                owner_name, _, attr = target.attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(f"{target.module}.{target.attr}")
                    continue
                wrapper = self._wrap(layer, target, original)
                if owner_name:
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)
        self._active = True

    def uninstall(self) -> None:
        """Restore every patched name (wrappers left behind call through)."""
        self._active = False
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self):
        """Trace the body of the ``with`` block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ---------------------------------------------------------
    def metrics(self, wall_s: float) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead`` (needs the timed runs)."""
        out: dict[str, float] = {"process.import_s": self.layers[IMPORT_LAYER].self_s}
        for name in LAYERS:
            out[f"{name}.calls"] = self.layers[name].calls
            out[f"{name}.self_s"] = self.layers[name].self_s
        bitsim = self.layers["logic.bitsim"]
        out["logic.bitsim.lanes_p50"] = statistics.median(bitsim.acc.get("lanes") or [0])
        out["logic.bitsim.lane_cycles"] = bitsim.acc["lane_cycles"]
        out["logic.bitsim.ns_per_lane_cycle"] = _ratio(1e9 * bitsim.self_s, bitsim.acc["lane_cycles"])
        fsim = self.layers["faults.fsim"].acc
        out["faults.fsim.tests_graded"] = fsim["tests_graded"]
        out["faults.fsim.hit_ratio"] = _ratio(fsim["hits"], fsim["groups"])
        out["bist.tpg.vectors"] = self.layers["bist.tpg"].acc["vectors"]
        gen = self.layers["core.builtin_gen"].acc
        out["core.builtin_gen.seeds_evaluated"] = gen["seeds_evaluated"]
        out["core.builtin_gen.seeds_accepted"] = gen["seeds_accepted"]
        out["core.builtin_gen.accept_ratio"] = _ratio(gen["seeds_accepted"], gen["seeds_evaluated"])
        imply = self.layers["atpg.implication"]
        out["atpg.implication.conflict_ratio"] = _ratio(imply.acc["conflicts"], imply.calls)
        out["experiments.runner.child_cpu_s"] = self.layers["experiments.runner"].acc["child_cpu_s"]
        roots = sum(end - start for _, _, _, start, end, parent in self.spans if parent is None)
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - roots
        return out

    def write_jsonl(self, path: str) -> None:
        """Append this run's spans to ``path``, one JSON object per line."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "a", encoding="utf-8") as fh:
            for span_id, layer, fn, start, end, parent in self.spans:
                record = {
                    "run": self.run,
                    "id": span_id,
                    "name": layer,
                    "fn": fn,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                }
                fh.write(json.dumps(record) + "\n")
