#!/usr/bin/env python3
"""End-to-end benchmark of the paper artifacts, with a traced per-layer run.

Every timed sample is a fresh interpreter running one workload's artifact
(``workloads.py run``) at its shipped configuration; a set-up probe
(``workloads.py setup``) runs before each sample.  Each output is checked
against its golden.  ``--seed`` picks the hold-out input: a seed other
than the shipped one gets one extra, untimed artifact run checked against
its golden or the table's shape invariants, and it seeds the
reference-oracle check.  The timed samples stay at the shipped seed
because generation work, and with it wall clock, varies by about 2x from
seed to seed.

    python benchmarks/e2e/run.py                       # every workload, full sample counts
    python benchmarks/e2e/run.py --workload table4.3 --seed 7 --out a.json
    python benchmarks/e2e/run.py --quick               # one sample each, no warm-up, no trace
    python benchmarks/e2e/run.py --workload table4.3 --seconds 15 --trace 1
    python benchmarks/e2e/run.py --compare a.json b.json
    python benchmarks/e2e/run.py --quick --record --db exp.db

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or the
per-layer metrics of the traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import PER_LAYER_METRICS  # noqa: E402
from workloads import HERE, REPO, SRC, WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER_METRICS}
CHILD = HERE / "workloads.py"
#: A child running longer than this is killed and counts as failed.
CHILD_TIMEOUT_S = 120.0
#: A time-budgeted run takes no new sample after this much sampling.
SAMPLING_CAP_S = 100.0
#: Workloads with few (long) samples get extra set-up probes afterwards.
SETUP_PROBES_MIN = 15


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def fail(message: str) -> None:
    """A one-line diagnostic on stderr, exit status 2."""
    print(f"run.py: error: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict[str, str]:
    """The parent's environment minus every ``REPRO_*`` setting.

    Obs, expdb, kernel, cache and fault-injection settings would change
    what a timed sample does, so none may leak into one.  Bytecode
    caching stays on, as for an installed package, whatever the shell says.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Child:
    """One finished child process."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str

    def diagnosis(self) -> str:
        """Why the child failed, from its exit status and stderr."""
        tail = self.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return f"exit {self.code}: {tail[0]}"


def spawn(*args: str) -> Child:
    """Run ``workloads.py ARGS``; time it from spawn to exit.

    The rusage comes from ``wait4`` on the child, which includes every
    descendant it reaped (the pool workers of a ``--jobs`` run).  The
    child leads its own process group, so a timeout kills the whole tree.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args],
        cwd=REPO,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    streams: dict[str, bytes] = {}
    readers = [
        threading.Thread(target=lambda k=k, s=s: streams.__setitem__(k, s.read()))
        for k, s in (("out", proc.stdout), ("err", proc.stderr))
    ]
    for reader in readers:
        reader.start()
    timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # a crashed child can leave pool workers holding the pipes
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    for reader in readers:
        reader.join()
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=streams["out"].decode(),
        stderr=streams["err"].decode(errors="replace"),
    )


def summarize(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles``) and sample count."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "values": values}


class Run:
    """Attempts and failures of one workload run."""

    def __init__(self, workload: Workload):
        """Start with nothing attempted."""
        self.workload = workload
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, label: str, issues: list[str]) -> bool:
        """Count one attempt; it failed when ``issues`` is non-empty."""
        self.attempted += 1
        if issues:
            self.failed += 1
            self.problems.extend(f"{label}: {issue}" for issue in issues)
            log(f"{self.workload.name}: {label} FAILED: {issues[0]}")
        return not issues

    def artifact(self, label: str, seed: int) -> Child:
        """One artifact run, output checked."""
        child = spawn("run", self.workload.name, str(seed))
        issues = [child.diagnosis()] if child.code else self.workload.check(seed, child.stdout)
        self.record(label, issues)
        return child

    def probe(self) -> Child:
        """One set-up probe."""
        child = spawn("setup", self.workload.name)
        self.record("set-up probe", [child.diagnosis()] if child.code else [])
        return child

    def json_child(self, label: str, *args: str) -> tuple[Child, dict | None]:
        """A child whose last stdout line is JSON; ``None`` when it failed."""
        child = spawn(*args)
        if child.code:
            self.record(label, [child.diagnosis()])
            return child, None
        return child, json.loads(child.stdout.strip().splitlines()[-1])


def log(message: str) -> None:
    """Progress on stderr (stdout carries the report)."""
    print(message, file=sys.stderr, flush=True)


def measure(
    workload: Workload,
    seed: int,
    seconds: float | None,
    quick: bool,
    trace: bool,
    trace_out: str | None,
) -> dict:
    """Time, check and optionally trace one workload."""
    run = Run(workload)
    shipped = workload.shipped_seed
    if workload.warmup and not quick:
        run.artifact("warm-up", shipped)
    samples: list[Child] = []
    probes: list[Child] = []
    target = 1 if quick else workload.samples
    begin = time.perf_counter()
    while True:
        probes.append(run.probe())
        samples.append(run.artifact(f"sample {len(samples) + 1}", shipped))
        log(f"{workload.name}: sample {len(samples)} wall {samples[-1].wall_s:.3f} s, "
            f"set-up {probes[-1].wall_s:.3f} s")
        elapsed = time.perf_counter() - begin
        if seconds is None:
            if len(samples) >= target:
                break
        elif (elapsed >= seconds and len(samples) >= workload.min_samples) or elapsed >= SAMPLING_CAP_S:
            break
    while len(probes) < SETUP_PROBES_MIN:
        probes.append(run.probe())
    if workload.seeded and seed != shipped:
        run.artifact(f"seed {seed}", seed)
    if workload.grades_faults:
        _, verdict = run.json_child("oracle", "oracle", str(seed))
        if verdict is not None:
            run.record("oracle", verdict["problems"])
    timed = [c for c in samples if c.code == 0] or samples
    setups = [c for c in probes if c.code == 0] or probes
    end_to_end = {
        "wall_s": summarize([c.wall_s for c in timed]),
        "cpu_s": summarize([c.cpu_s for c in timed]),
        "setup_s": summarize([c.wall_s for c in setups]),
        "peak_rss_mb": summarize([c.rss_mb for c in timed]),
    }
    per_layer: dict[str, float] = {}
    if trace:
        args = ["trace", workload.name, str(shipped)]
        child, traced = run.json_child("traced run", *args, *(["--trace-out", trace_out] if trace_out else []))
        if traced is not None:
            run.record("traced run", workload.check(shipped, traced["output"]))
            per_layer = traced["metrics"]
            per_layer["trace.overhead"] = child.wall_s / end_to_end["wall_s"]["median"] - 1.0
    return {
        "workload": workload.name,
        "seed": seed,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_rate": run.failed / run.attempted,
        "problems": run.problems,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def report(result: dict) -> None:
    """Print one workload's metrics by name and unit."""
    print(f"== {result['workload']} (seed {result['seed']}): "
          f"{result['failed']}/{result['attempted']} failed, fail_rate {result['fail_rate']:.3f}")
    for problem in result["problems"]:
        print(f"   !! {problem}")
    print(f"   {'metric':34s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s}  bound")
    for name, stats in result["end_to_end"].items():
        spec = END_TO_END[name]
        print(f"   {name:34s} {spec['unit']:6s} {stats['median']:12.4f} {stats['q1']:12.4f} "
              f"{stats['q3']:12.4f} {stats['n']:3d}  +{spec['bound']:.0%} ({spec['better']} is better)")
    for name, value in result["per_layer"].items():
        print(f"   {name:34s} {PER_LAYER_UNITS[name]:6s} {value:12.6g}")


def final_line(results: list[dict], per_layer: bool) -> dict:
    """The machine-readable summary: last line of stdout."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics: dict[str, dict] = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}/"
        if per_layer:
            for name, unit in PER_LAYER_UNITS.items():
                metrics[prefix + name] = {"value": r["per_layer"].get(name, 0.0), "unit": unit}
        else:
            for name, spec in END_TO_END.items():
                metrics[prefix + name] = {"value": r["end_to_end"][name]["median"], "unit": spec["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    """``better``/``worse``/``same``/``unresolved`` for B against A.

    A change beyond the bound counts when the quartile ranges separate or
    both spreads are within the bound; overlapping ranges wider than the
    bound leave it unresolved.
    """
    change = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
    if better == "higher":
        change = -change
    spread = max((s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0 for s in (a, b))
    separated = b["q1"] > a["q3"] or a["q1"] > b["q3"]
    resolved = separated or spread <= bound
    if change > bound and resolved:
        return "worse"
    if change < -bound and resolved:
        return "better"
    return "unresolved" if not resolved else "same"


def compare(path_a: str, path_b: str) -> int:
    """Print the A-vs-B table; exit status 1 when any row is worse."""
    sides = []
    for path in (path_a, path_b):
        try:
            sides.append(json.loads(Path(path).read_text())["workloads"])
        except (OSError, ValueError, KeyError) as exc:
            fail(f"cannot read results file {path}: {exc}")
    a, b = sides
    print(f"{'workload':16s} {'metric':12s} {'A median [q1, q3]':>30s} {'B median [q1, q3]':>30s}  verdict")
    worse = 0
    for name in [w for w in a if w in b]:
        for metric, spec in END_TO_END.items():
            sa, sb = a[name]["end_to_end"][metric], b[name]["end_to_end"][metric]
            v = verdict(sa, sb, spec["bound"], spec["better"])
            worse += v == "worse"
            print(f"{name:16s} {metric:12s} "
                  f"{sa['median']:10.4f} [{sa['q1']:.4f}, {sa['q3']:.4f}] "
                  f"{sb['median']:10.4f} [{sb['q1']:.4f}, {sb['q3']:.4f}]  {v}")
        fa, fb = a[name]["fail_rate"], b[name]["fail_rate"]
        v = "worse" if fb > fa else "better" if fb < fa else "same"
        worse += v == "worse"
        print(f"{name:16s} {'fail_rate':12s} {fa:>30.4f} {fb:>30.4f}  {v}")
    return 1 if worse else 0


def bench_payload(results: list[dict]) -> dict:
    """Results as expdb bench sections: workload -> subject -> metric.

    ``repro-eda db trend`` splits names on dots, so dots become
    underscores: ``table4_3.wall_s.median``, ``table4_3.logic_bitsim.self_s``.
    """
    payload: dict[str, dict] = {}
    for r in results:
        section: dict[str, dict] = {}
        for metric, stats in r["end_to_end"].items():
            section[metric] = {k: stats[k] for k in ("median", "q1", "q3", "n")}
        section["fail_rate"] = {"value": r["fail_rate"]}
        for name, value in r["per_layer"].items():
            layer, _, metric = name.rpartition(".")
            section.setdefault(layer.replace(".", "_"), {})[metric] = value
        payload[r["workload"].replace(".", "_")] = section
    return payload


def record(results: list[dict], db_path: str, quick: bool) -> None:
    """Append the results to the experiment database as one bench batch."""
    sys.path.insert(0, str(SRC))
    from repro.expdb import ExperimentDB, ExperimentDBError

    try:
        db = ExperimentDB(db_path)
    except ExperimentDBError as exc:
        fail(str(exc))
    try:
        batch = db.record_bench(bench_payload(results), quick=quick)
    finally:
        db.close()
    log(f"recorded bench batch {batch} in {db_path}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse and validate; malformed input exits 2 with one line."""
    p = _Parser(prog="run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one of: " + ", ".join(WORKLOADS) + " (default: all)")
    p.add_argument("--seed", help="rng seed of the hold-out check (default: the shipped seed)")
    p.add_argument("--seconds", help="sample for this many seconds instead of a fixed count")
    p.add_argument("--trace", choices=("0", "1"), help="traced per-layer run; 1 prints per-layer metrics last")
    p.add_argument("--quick", action="store_true", help="one sample per workload, no warm-up, no trace")
    p.add_argument("--out", metavar="FILE", help="write every result as JSON (input of --compare)")
    p.add_argument("--trace-out", metavar="FILE", help="write the traced runs' spans as JSONL")
    p.add_argument("--record", action="store_true", help="append the results to --db as a bench batch")
    p.add_argument("--db", metavar="PATH", help="experiment database for --record")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), help="compare two --out files")
    args = p.parse_args(argv)
    if args.workload is not None and args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seed is not None:
        if not args.seed.isdigit():
            fail(f"--seed must be a non-negative integer, got {args.seed!r}")
        args.seed = int(args.seed)
    if args.seconds is not None:
        try:
            args.seconds = float(args.seconds)
        except ValueError:
            args.seconds = -1.0
        if not 0 < args.seconds <= SAMPLING_CAP_S:
            fail(f"--seconds must be a number in (0, {SAMPLING_CAP_S:g}]")
    if args.record and not args.db:
        fail("--record needs --db PATH")
    return args


def main(argv: list[str]) -> int:
    """Run the benchmark (or ``--compare``) and print the report."""
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no repro package under {SRC}; run from a full checkout")
    trace = args.trace == "1" if args.trace is not None else not args.quick
    if args.trace_out:  # children run in the repository root
        args.trace_out = str(Path(args.trace_out).resolve())
        Path(args.trace_out).write_text("")
    results = []
    for workload in [WORKLOADS[args.workload]] if args.workload else WORKLOADS.values():
        seed = workload.shipped_seed if args.seed is None else args.seed
        result = measure(workload, seed, args.seconds, args.quick, trace, args.trace_out)
        report(result)
        results.append(result)
    if args.out:
        host = {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()}
        Path(args.out).write_text(
            json.dumps({"host": host, "workloads": {r["workload"]: r for r in results}}, indent=1)
        )
    if args.record:
        record(results, args.db, args.quick)
    print(json.dumps(final_line(results, per_layer=args.trace == "1")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
