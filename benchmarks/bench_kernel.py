"""Kernel benchmark: scalar reference vs compiled scalar vs bit-parallel.

Times the three evaluation paths that share the compiled circuit IR
(`repro.core.compiled`) on the benchmark suite and writes the results to
``BENCH_kernel.json`` at the repository root -- the start of the repo's
performance trajectory.  Two workloads:

* **sequence simulation** (the Fig 4.9 inner loop): a length-``L``
  functional simulation from the all-0 state, run with the pre-refactor
  dict-based reference (`repro.logic.reference`), the compiled scalar
  kernel, and the 64-lane packed word kernel (throughput normalized to
  lane-cycles).
* **fault grading** (the Tables 4.1-4.4 cost center): transition-fault
  grading of a broadside test set on the largest bundled benchmark
  circuit, scalar forced-resimulation reference vs the compiled PPSFP
  bit-parallel grader -- the verdict sets are asserted identical before
  the timings are recorded.
* **built-in generation** (the Fig 4.9 seed-trial loop end to end):
  the scalar one-seed-at-a-time construction (``lanes=1``) vs the
  64-lane packed engine (``lanes=None``) on a rejection-heavy configuration (large ``R``, subsampled
  fault list, so most candidate seeds fail and batching pays).  The
  accepted segment lists are asserted bit-identical before timing; the
  batched path must clear a 5x seeds-evaluated/sec floor.
* **observability overhead** (the ``repro.obs`` budget): the same
  end-to-end generation run on s1423 with metric collection enabled vs
  disabled; the enabled run must stay within a 2% wall-time overhead,
  failing the benchmark otherwise.
* **fault-sharded grading** (the ``--shards`` path): one grouped
  preview on the largest bundled circuit, serial ``FaultGrader`` vs the
  same grader fanned out over 4 fault shards on the self-healing worker
  pool.  The merged detection sets are asserted identical; on hosts with
  at least 4 CPUs the sharded pass must clear a 2x speedup floor.
* **artifact-cache warm start** (the ``repro.cache`` path): per-process
  setup work on s1423 -- compiled-IR lowering, word-kernel codegen +
  ``compile()``, and fault-list collapse -- measured against an empty
  cache (cold) and a populated one (warm).  Warm setup must be at least
  5x faster than cold.

Run directly: ``PYTHONPATH=src python benchmarks/bench_kernel.py``
(options: ``--quick`` for a reduced workload; ``--sections LIST`` to run
a comma-separated subset -- sections not run keep their previous values
in the output file instead of being dropped).  Every payload is stamped
with the repository code hash and a UTC timestamp, and ``--record``
appends the run's samples to the experiment database (``--db PATH`` /
``REPRO_DB``; gate them against history with ``repro-eda db gate``), so
``BENCH_kernel.json`` is a view over the newest measurements rather than
the only record of them.  Setting ``REPRO_TRACE=<path>`` enables metric
collection for the main workloads and writes the span trace as JSONL to
``<path>`` (view it with ``repro-eda stats``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro import cache as artifact_cache
from repro import obs
from repro.circuits.benchmarks import available, entry, get_circuit
from repro.circuits.generator import GeneratorSpec, generate
from repro.core.builtin_gen import BuiltinGenConfig, BuiltinGenerator
from repro.core.compiled import compile_circuit
from repro.faults.collapse import collapsed_transition_faults
from repro.faults.fsim import FaultGrader, TransitionFaultSimulator
from repro.faults.lists import all_transition_faults
from repro.logic.bitsim import simulate_sequences_packed
from repro.logic.reference import (
    grade_transition_faults_reference,
    simulate_sequence_reference,
)
from repro.logic.simulator import (
    extract_tests_from_sequence,
    simulate_sequence,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_kernel.json"

#: Circuits spanning the suite's size range for the sequence workload.
SEQUENCE_CIRCUITS = ("s27", "s298", "s953", "s1423", "b14")

#: Circuits for the end-to-end built-in generation workload (the two
#: largest, where the ISSUE's speedup floor is measured).
GENERATION_CIRCUITS = ("s1423", "b14")

#: Required batched-vs-scalar speedup in seeds evaluated per second.
GENERATION_SPEEDUP_FLOOR = 5.0

#: Circuit the observability-overhead gate is measured on.
OBS_CIRCUIT = "s1423"

#: Maximum tolerated enabled-vs-disabled wall-time overhead (fraction).
OBS_OVERHEAD_BUDGET = 0.02

#: Shard count for the fault-sharded grading workload.
SHARDING_SHARDS = 4

#: Required sharded-vs-serial grading speedup with 4 shards.  Only
#: enforced on hosts with at least :data:`SHARDING_MIN_CPUS` cores --
#: with fewer, the workers time-slice one core and the floor is
#: physically unreachable; the measurement is still recorded.
SHARDING_SPEEDUP_FLOOR = 2.0
SHARDING_MIN_CPUS = 4

#: Circuit the artifact-cache warm-start gate is measured on.
CACHE_CIRCUIT = "s1423"

#: Required warm-vs-cold setup speedup with a populated artifact cache.
CACHE_SPEEDUP_FLOOR = 5.0


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def largest_circuit_name() -> str:
    """Largest bundled benchmark by line count (registry parameters)."""

    def size(name: str) -> int:
        e = entry(name)
        return e.n_inputs + e.n_flops + e.n_gates

    return max(available(), key=size)


def bench_sequences(length: int, repeats: int) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for name in SEQUENCE_CIRCUITS:
        circuit = get_circuit(name)
        rng = random.Random(11)
        vectors = [
            [rng.randint(0, 1) for _ in circuit.inputs] for _ in range(length)
        ]
        init = [0] * len(circuit.flops)

        t_ref = _best_of(
            repeats,
            lambda: simulate_sequence_reference(
                circuit, init, vectors, keep_line_values=False
            ),
        )
        t_compiled = _best_of(
            repeats,
            lambda: simulate_sequence(circuit, init, vectors, keep_line_values=False),
        )
        # 64 independent lanes in one packed run; normalize to one lane.
        lanes = 64
        lane_vectors = [
            [[rng.randint(0, 1) for _ in circuit.inputs] for _ in range(length)]
            for _ in range(lanes)
        ]
        t_packed = _best_of(
            repeats,
            lambda: simulate_sequences_packed(
                circuit, [init] * lanes, lane_vectors
            ),
        )
        out[name] = {
            "lines": circuit.num_lines,
            "cycles": length,
            "scalar_reference_s": t_ref,
            "compiled_scalar_s": t_compiled,
            "packed64_total_s": t_packed,
            "packed64_per_lane_s": t_packed / lanes,
            "compiled_scalar_speedup": t_ref / t_compiled if t_compiled else 0.0,
            "packed_per_lane_speedup": t_ref / (t_packed / lanes) if t_packed else 0.0,
        }
        print(
            f"  {name:8s} ({circuit.num_lines:5d} lines): "
            f"ref {t_ref * 1e3:8.2f} ms | compiled {t_compiled * 1e3:8.2f} ms "
            f"({out[name]['compiled_scalar_speedup']:.2f}x) | "
            f"packed/lane {t_packed / lanes * 1e3:8.3f} ms "
            f"({out[name]['packed_per_lane_speedup']:.1f}x)"
        )
    return out


def bench_fault_grading(
    name: str, n_tests: int, n_faults: int, repeats: int
) -> dict[str, object]:
    circuit = get_circuit(name)
    rng = random.Random(23)
    length = 2 * n_tests + 2
    vectors = [[rng.randint(0, 1) for _ in circuit.inputs] for _ in range(length)]
    init = [0] * len(circuit.flops)
    trajectory = simulate_sequence(circuit, init, vectors, keep_line_values=False)
    tests = extract_tests_from_sequence(circuit, trajectory, vectors, spacing=2)[
        :n_tests
    ]
    faults = all_transition_faults(circuit)
    faults = rng.sample(faults, min(n_faults, len(faults)))

    grader = TransitionFaultSimulator(circuit)
    detected_compiled = grader.detected_faults(tests, faults)
    detected_scalar = grade_transition_faults_reference(circuit, tests, faults)
    assert detected_compiled == detected_scalar, "verdict mismatch: bench aborted"

    t_scalar = _best_of(
        repeats, lambda: grade_transition_faults_reference(circuit, tests, faults)
    )
    t_compiled = _best_of(
        repeats, lambda: TransitionFaultSimulator(circuit).detected_faults(tests, faults)
    )
    result = {
        "circuit": name,
        "lines": circuit.num_lines,
        "n_tests": len(tests),
        "n_faults": len(faults),
        "n_detected": len(detected_compiled),
        "scalar_reference_s": t_scalar,
        "compiled_bitparallel_s": t_compiled,
        "speedup": t_scalar / t_compiled if t_compiled else 0.0,
    }
    print(
        f"  {name} ({circuit.num_lines} lines, {len(tests)} tests x "
        f"{len(faults)} faults): scalar {t_scalar:.3f} s | "
        f"compiled PPSFP {t_compiled:.3f} s | speedup {result['speedup']:.1f}x"
    )
    return result


def bench_builtin_generation(
    length: int, n_faults: int, repeats: int
) -> dict[str, dict[str, object]]:
    """Scalar vs batched Fig 4.9 construction, bit-identity asserted.

    The configuration is rejection-heavy by design: a large ``R`` keeps
    the batch width near 64, ``Q = 1`` with a subsampled fault list means
    coverage saturates after a few accepted segments and the remaining
    candidate seeds all fail -- the regime where evaluating 64 seeds per
    packed simulation amortizes best (the regime Table 4.3 runs live in).
    """
    out: dict[str, dict[str, object]] = {}
    for name in GENERATION_CIRCUITS:
        circuit = get_circuit(name)
        rng = random.Random(31)
        faults = collapsed_transition_faults(circuit)
        faults = rng.sample(faults, min(n_faults, len(faults)))

        def run(lanes: int | None):
            cfg = BuiltinGenConfig(
                segment_length=length,
                r_limit=32,
                q_limit=1,
                rng_seed=19,
                time_limit=None,
                lanes=lanes,
            )
            gen = BuiltinGenerator(circuit, faults, None, config=cfg)
            return gen, gen.run()

        gen_s, res_s = run(1)
        gen_b, res_b = run(None)
        segs_s = [seg for m in res_s.sequences for seg in m.segments]
        segs_b = [seg for m in res_b.sequences for seg in m.segments]
        assert segs_s == segs_b, f"{name}: batched segments diverge: bench aborted"
        assert res_s.coverage == res_b.coverage, f"{name}: coverage diverges"
        assert res_s.peak_swa == res_b.peak_swa, f"{name}: peak SWA diverges"
        assert gen_s.stats.seeds_evaluated == gen_b.stats.seeds_evaluated

        t_scalar = _best_of(repeats, lambda: run(1))
        t_batched = _best_of(repeats, lambda: run(None))
        seeds = gen_s.stats.seeds_evaluated
        accepted = gen_s.stats.seeds_accepted
        speedup = t_scalar / t_batched if t_batched else 0.0
        out[name] = {
            "lines": circuit.num_lines,
            "segment_length": length,
            "n_faults": len(faults),
            "seeds_evaluated": seeds,
            "seeds_accepted": accepted,
            "packed_batches": gen_b.stats.packed_batches,
            "scalar_s": t_scalar,
            "batched_s": t_batched,
            "scalar_seeds_per_s": seeds / t_scalar if t_scalar else 0.0,
            "batched_seeds_per_s": seeds / t_batched if t_batched else 0.0,
            "scalar_s_per_segment": t_scalar / accepted if accepted else None,
            "batched_s_per_segment": t_batched / accepted if accepted else None,
            "speedup": speedup,
        }
        print(
            f"  {name:8s} ({circuit.num_lines:5d} lines, {seeds} seeds, "
            f"{accepted} accepted): scalar {t_scalar:.3f} s "
            f"({seeds / t_scalar:8.1f} seeds/s) | batched {t_batched:.3f} s "
            f"({seeds / t_batched:8.1f} seeds/s) | speedup {speedup:.1f}x"
        )
    return out


def bench_observability(repeats: int) -> dict[str, object]:
    """Enabled-vs-disabled ``repro.obs`` overhead on end-to-end generation.

    Runs the batched Fig 4.9 construction on :data:`OBS_CIRCUIT` and
    reports the relative wall-time overhead of metric collection against
    :data:`OBS_OVERHEAD_BUDGET`.  Methodology notes:

    * the workload is fixed (independent of ``--quick``): sub-second runs
      put the 2% budget inside scheduler/allocator noise;
    * off/on timing samples are *interleaved* and each side keeps its
      minimum -- back-to-back blocks of one mode systematically favour
      whichever runs later (cache and frequency warm-up), which showed up
      as impossible negative overheads;
    * the registry is reset before every enabled run so event-list growth
      across repeats cannot inflate later samples.

    Leaves the global registry disabled and empty.
    """
    circuit = get_circuit(OBS_CIRCUIT)
    rng = random.Random(31)
    faults = collapsed_transition_faults(circuit)
    faults = rng.sample(faults, min(48, len(faults)))

    def run() -> None:
        cfg = BuiltinGenConfig(
            segment_length=100,
            r_limit=32,
            q_limit=1,
            rng_seed=19,
            time_limit=None,
            lanes=None,
        )
        BuiltinGenerator(circuit, faults, None, config=cfg).run()

    obs.disable()
    obs.reset()
    run()  # warm the compile caches outside the timed region
    t_off = t_on = float("inf")
    for _ in range(max(repeats * 3, 6)):
        obs.disable()
        obs.reset()
        t0 = time.perf_counter()
        run()
        t_off = min(t_off, time.perf_counter() - t0)
        obs.enable()
        obs.reset()
        t0 = time.perf_counter()
        run()
        t_on = min(t_on, time.perf_counter() - t0)
    counters = len(obs.registry().counters)
    spans = len(obs.registry().events)
    obs.disable()
    obs.reset()
    overhead = (t_on - t_off) / t_off if t_off else 0.0
    result = {
        "circuit": OBS_CIRCUIT,
        "lines": circuit.num_lines,
        "segment_length": 100,
        "n_faults": len(faults),
        "disabled_s": t_off,
        "enabled_s": t_on,
        "overhead_fraction": overhead,
        "budget_fraction": OBS_OVERHEAD_BUDGET,
        "counters_recorded": counters,
        "spans_recorded": spans,
    }
    print(
        f"  {OBS_CIRCUIT} generation: disabled {t_off:.3f} s | "
        f"enabled {t_on:.3f} s | overhead {100 * overhead:+.2f}% "
        f"(budget {100 * OBS_OVERHEAD_BUDGET:.0f}%, {counters} counters, "
        f"{spans} spans)"
    )
    return result


def bench_fault_sharding(
    name: str, n_tests: int, n_faults: int, repeats: int
) -> dict[str, object]:
    """Serial vs fault-sharded ``FaultGrader.preview``, equality asserted.

    Both graders are constructed once and warmed outside the timed
    region (the sharded warm-up pass spawns the persistent workers, which
    parse the shipped netlist and compile their own IR), so the timings
    compare steady-state preview cost -- the regime the Fig 4.9 loop runs
    in, where one grader answers thousands of previews.
    """
    circuit = get_circuit(name)
    rng = random.Random(47)
    length = 2 * n_tests + 2
    vectors = [[rng.randint(0, 1) for _ in circuit.inputs] for _ in range(length)]
    init = [0] * len(circuit.flops)
    trajectory = simulate_sequence(circuit, init, vectors, keep_line_values=False)
    tests = extract_tests_from_sequence(circuit, trajectory, vectors, spacing=2)[
        :n_tests
    ]
    faults = collapsed_transition_faults(circuit)
    faults = rng.sample(faults, min(n_faults, len(faults)))

    serial = FaultGrader(circuit, faults)
    sharded = FaultGrader(circuit, faults, shards=SHARDING_SHARDS)
    try:
        set_serial = serial.preview(tests)
        set_sharded = sharded.preview(tests)
        assert set_serial == set_sharded, f"{name}: sharded preview diverges"
        t_serial = _best_of(repeats, lambda: serial.preview(tests))
        t_sharded = _best_of(repeats, lambda: sharded.preview(tests))
    finally:
        sharded.close()

    cpus = os.cpu_count() or 1
    result = {
        "circuit": name,
        "lines": circuit.num_lines,
        "n_tests": len(tests),
        "n_faults": len(faults),
        "n_detected": len(set_serial),
        "shards": SHARDING_SHARDS,
        "cpus": cpus,
        "floor_enforced": cpus >= SHARDING_MIN_CPUS,
        "serial_s": t_serial,
        "sharded_s": t_sharded,
        "speedup": t_serial / t_sharded if t_sharded else 0.0,
    }
    note = "" if result["floor_enforced"] else f" [floor not enforced: {cpus} cpu(s)]"
    print(
        f"  {name} ({circuit.num_lines} lines, {len(tests)} tests x "
        f"{len(faults)} faults): serial {t_serial:.3f} s | "
        f"{SHARDING_SHARDS} shards {t_sharded:.3f} s | "
        f"speedup {result['speedup']:.1f}x{note}"
    )
    return result


def bench_cache_warm_start(repeats: int) -> dict[str, object]:
    """Cold vs warm per-process setup under :mod:`repro.cache`.

    Each sample rebuilds :data:`CACHE_CIRCUIT` from its generator spec
    *outside* the timed region (the spec is deterministic, so every fresh
    circuit hashes to the same cache key) and then times the setup work a
    new process pays before the first simulation: IR lowering, word-kernel
    codegen + ``compile()``, and fault-list collapse.  Cold samples clear
    the store first; warm samples hit all three artifact kinds.  The warm
    artifacts are asserted identical to the cold-built ones before the
    timings are recorded.  The global cache is left deactivated.
    """
    e = entry(CACHE_CIRCUIT)
    spec = GeneratorSpec(
        name=e.name,
        n_inputs=e.n_inputs,
        n_outputs=e.n_outputs,
        n_flops=e.n_flops,
        n_gates=e.n_gates,
    )

    def setup(circuit):
        cc = compile_circuit(circuit)
        cc.eval_words(cc.zero_frame(), 0)  # triggers word-kernel build
        faults = collapsed_transition_faults(circuit)
        return cc, faults

    root = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        artifact_cache.configure(root)
        store = artifact_cache.active()

        t_cold = float("inf")
        cold = None
        for _ in range(repeats):
            store.clear()
            circuit = generate(spec)
            t0 = time.perf_counter()
            cold = setup(circuit)
            t_cold = min(t_cold, time.perf_counter() - t0)

        # The last cold sample left the store populated: warm from here.
        t_warm = float("inf")
        warm = None
        for _ in range(repeats):
            circuit = generate(spec)
            t0 = time.perf_counter()
            warm = setup(circuit)
            t_warm = min(t_warm, time.perf_counter() - t0)

        assert cold is not None and warm is not None
        assert warm[0]._schedule == cold[0]._schedule, "warm IR diverges"
        assert warm[1] == cold[1], "warm collapsed fault list diverges"
        entries = sum(k["entries"] for k in store.stats()["kinds"].values())
    finally:
        artifact_cache.configure(None)
        shutil.rmtree(root, ignore_errors=True)

    result = {
        "circuit": CACHE_CIRCUIT,
        "lines": cold[0].num_lines,
        "cache_entries": entries,
        "cold_s": t_cold,
        "warm_s": t_warm,
        "speedup": t_cold / t_warm if t_warm else 0.0,
    }
    print(
        f"  {CACHE_CIRCUIT} setup (compile + kernel + collapse, "
        f"{entries} cached artifacts): cold {t_cold * 1e3:.1f} ms | "
        f"warm {t_warm * 1e3:.1f} ms | speedup {result['speedup']:.1f}x"
    )
    return result


#: Every bench section, in run order (``--sections`` validates against it).
SECTIONS = (
    "observability",
    "sequence_simulation",
    "fault_grading",
    "builtin_generation",
    "fault_sharding",
    "cache_warm_start",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="reduced workload")
    parser.add_argument("--output", type=Path, default=OUTPUT)
    parser.add_argument(
        "--sections",
        metavar="LIST",
        default=None,
        help="comma-separated subset of sections to run "
        f"(choose from: {', '.join(SECTIONS)}); sections not run keep "
        "their previous values in the output file",
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="append this run's samples to the experiment database "
        "(--db PATH or REPRO_DB; see repro.expdb and `repro-eda db gate`)",
    )
    parser.add_argument(
        "--db",
        metavar="PATH",
        default=None,
        help="experiment database path for --record (default: REPRO_DB)",
    )
    args = parser.parse_args(argv)

    if args.sections:
        selected = tuple(s.strip() for s in args.sections.split(",") if s.strip())
        unknown = sorted(set(selected) - set(SECTIONS))
        if unknown:
            print(
                f"unknown section(s): {', '.join(unknown)} "
                f"(choose from: {', '.join(SECTIONS)})",
                file=sys.stderr,
            )
            return 2
    else:
        selected = SECTIONS

    from repro import expdb

    length = 60 if args.quick else 200
    n_tests = 16 if args.quick else 64
    n_faults = 24 if args.quick else 80
    gen_length = 48 if args.quick else 100
    gen_faults = 32 if args.quick else 48
    shard_tests = 16 if args.quick else 48
    shard_faults = 64 if args.quick else 320
    repeats = 1 if args.quick else 2

    results: dict[str, dict] = {}
    # The overhead gate runs first: it owns the global registry's enabled
    # flag, so it must not clobber metrics a REPRO_TRACE run collects.
    if "observability" in selected:
        print("observability overhead (repro.obs enabled vs disabled):")
        results["observability"] = bench_observability(repeats)
    trace_path = obs.enable_from_env()

    if "sequence_simulation" in selected:
        print("sequence simulation (scalar reference vs compiled vs packed):")
        results["sequence_simulation"] = bench_sequences(length, repeats)
    largest = largest_circuit_name()
    if "fault_grading" in selected:
        print(
            f"transition-fault grading on the largest bundled circuit ({largest}):"
        )
        results["fault_grading"] = bench_fault_grading(
            largest, n_tests, n_faults, repeats
        )
    if "builtin_generation" in selected:
        print("built-in generation (scalar vs 64-lane batched seed trials):")
        results["builtin_generation"] = bench_builtin_generation(
            gen_length, gen_faults, repeats
        )
    if "fault_sharding" in selected:
        print(
            f"fault-sharded grading (serial vs {SHARDING_SHARDS} shards "
            f"on {largest}):"
        )
        results["fault_sharding"] = bench_fault_sharding(
            largest, shard_tests, shard_faults, repeats
        )
    if "cache_warm_start" in selected:
        print(f"artifact-cache warm start (cold vs warm setup on {CACHE_CIRCUIT}):")
        results["cache_warm_start"] = bench_cache_warm_start(max(repeats, 2))
    if trace_path:
        n_spans = obs.save_trace(trace_path)
        print(f"wrote {n_spans} trace span(s) to {trace_path}")

    # ``fresh`` carries only what this invocation measured (the unit
    # --record appends and the gate judges); the file payload merges it
    # over any previous sections instead of silently dropping them.
    fresh = {
        "benchmark": "kernel",
        "unix_time": int(time.time()),
        "utc": expdb.utc_now(),
        "code_hash": expdb.code_hash(),
        "python": sys.version.split()[0],
        "workload": {
            "sequence_cycles": length,
            "grading_tests": n_tests,
            "grading_faults": n_faults,
            "generation_segment_length": gen_length,
            "generation_faults": gen_faults,
            "sharding_tests": shard_tests,
            "sharding_faults": shard_faults,
            "repeats": repeats,
        },
        **results,
    }
    payload = fresh
    if set(selected) != set(SECTIONS) and args.output.exists():
        try:
            previous = json.loads(args.output.read_text())
        except (OSError, json.JSONDecodeError):
            previous = {}
        payload = {**previous, **fresh}
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.record:
        db_path = args.db or os.environ.get(expdb.ENV_VAR)
        if not db_path:
            print(
                f"--record needs --db PATH or {expdb.ENV_VAR}", file=sys.stderr
            )
            return 2
        with expdb.ExperimentDB(db_path) as db:
            batch = db.record_bench(fresh, quick=args.quick)
        print(f"recorded bench batch {batch} in {db_path}")

    status = 0
    grading = results.get("fault_grading")
    if grading is not None and grading["speedup"] < 3.0:
        print("WARNING: compiled fault grading below the 3x target", file=sys.stderr)
        status = 1
    for name, row in results.get("builtin_generation", {}).items():
        if row["speedup"] < GENERATION_SPEEDUP_FLOOR:
            print(
                f"WARNING: batched generation on {name} below the "
                f"{GENERATION_SPEEDUP_FLOOR:.0f}x floor "
                f"({row['speedup']:.1f}x)",
                file=sys.stderr,
            )
            status = 1
    observability = results.get("observability")
    if (
        observability is not None
        and observability["overhead_fraction"] > OBS_OVERHEAD_BUDGET
    ):
        print(
            f"WARNING: observability overhead "
            f"{100 * observability['overhead_fraction']:.2f}% exceeds the "
            f"{100 * OBS_OVERHEAD_BUDGET:.0f}% budget",
            file=sys.stderr,
        )
        status = 1
    sharding = results.get("fault_sharding")
    if (
        sharding is not None
        and sharding["floor_enforced"]
        and sharding["speedup"] < SHARDING_SPEEDUP_FLOOR
    ):
        print(
            f"WARNING: sharded grading below the "
            f"{SHARDING_SPEEDUP_FLOOR:.0f}x floor ({sharding['speedup']:.1f}x "
            f"on {sharding['cpus']} cpus)",
            file=sys.stderr,
        )
        status = 1
    cache_warm = results.get("cache_warm_start")
    if cache_warm is not None and cache_warm["speedup"] < CACHE_SPEEDUP_FLOOR:
        print(
            f"WARNING: cache warm start below the {CACHE_SPEEDUP_FLOOR:.0f}x "
            f"floor ({cache_warm['speedup']:.1f}x)",
            file=sys.stderr,
        )
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
