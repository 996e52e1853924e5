"""Command-line interface: ``repro-eda``, the one front end of the repo.

Subcommands mirror the paper's three methods plus utilities::

    repro-eda circuits                      # list the benchmark registry
    repro-eda info s298                     # circuit + TPG parameters
    repro-eda generate s298 --driver s953   # Chapter 4 flow (opt. --hold)
    repro-eda tpdf s27 --max-faults 60      # Chapter 2 pipeline
    repro-eda select-paths s298 --n 6       # Chapter 3 procedure
    repro-eda table 4.3                     # regenerate a paper artifact
    repro-eda stats --db exp.db             # a stored run's report and spans
    repro-eda db runs --db exp.db           # browse the experiment history

Every command runs on the local machine.  ``table --jobs N``, the one
parallel option, fans the rows of tables 4.3, 4.4 and ``chapter4`` out
over N worker processes; at 1 everything runs in this process.  It
changes no output byte; any other table exits 2 when given it.
``table ID`` runs any entry of the artifact registry
(:mod:`repro.experiments.artifacts`) at its one shipped configuration.
Bad input -- no command, an unknown option, a value of the wrong type,
an unknown benchmark or table id, an out-of-range count or time budget,
a flag the chosen table does not use, a ``generate --tree-height``
without ``--hold``, an output path that is a directory or lies in a
missing one, or a database path that holds no experiment database --
fails fast with a one-line ``error:`` diagnostic and exit code 2 before
any work.  ``--help`` prints usage and exits 0.

Observability: ``generate`` and ``table`` accept ``--stats`` (print the
run report: per-phase time breakdown, seeds tried/accepted, truncation
histogram, grading passes, compile-cache hits).  ``table --jobs N``
merges each worker's metrics back into one report.  A collecting run
starts from an empty registry and leaves collection on or off as it
found it, so a later command in the same process reports only itself.

Failed rows (see :mod:`repro.experiments.runner`): tables 4.3, 4.4 and
``chapter4`` accept ``--timeout``, the per-row deadline.  A timed table
runs its rows on worker processes even at ``--jobs 1``, so a row that
overruns the deadline is killed, never cut short.  Every row runs once:
a row that raises, crashes its worker or times out renders as a
``FAILED`` annotation and flips the exit code to 1 *after* the table
prints.  A row is a pure function of its task kwargs, so a failed or
killed table, run again, prints the same rows.

Experiment history (see :mod:`repro.expdb`): ``generate`` and ``table``
accept ``--db PATH``, the one record of a run.  :func:`_run_campaign`
opens the database once, in this process, and appends the run -- its
argv, its fingerprint (of the artifact's registry parameters for a
table, so ``--jobs`` never changes it), every resolved row in task
order, and the end-of-run metric snapshot with p50/p95/p99 histogram
summaries and every span.  ``repro-eda db {runs,show,query,trend,gate}``
reads the history back: ``db gate`` judges the newest
``benchmarks/e2e/run.py --record`` batch against the rolling median of
up to N earlier batches, with the bounds of ``BENCHMARK.json`` in the
working directory, and ``repro-eda stats --db PATH`` re-renders any
stored run report and its span tree.  These read-only commands need
``--db``, never create a database, and ``db gate`` on one without a
batch is an error, not a pass.  Recording never changes results, and a
run without ``--db`` never imports the database.

All output is plain text; every command is deterministic for fixed seeds.
"""

from __future__ import annotations

import argparse
import sys
from typing import NoReturn, Sequence


#: Integer options and the least value each accepts, with what it counts.
_INT_MINIMUMS = (
    ("jobs", 1, "a positive worker count"),
    ("length", 1, "a positive segment length"),
    ("max_faults", 1, "a positive fault count"),
    ("n", 1, "a positive path count"),
    ("tree_height", 0, "a non-negative tree height"),
    ("limit", 1, "a positive count"),
    ("last", 0, "a non-negative window"),
)

#: ``table`` flags that only some artifacts take (``Artifact.flags``),
#: each with its default, which asks nothing of any table.
_ARTIFACT_FLAGS = {"jobs": 1, "timeout": None}

#: The longest ``--timeout`` (s): the runner's watchdog waits in
#: ``multiprocessing.connection.wait``, which takes at most 2**31 - 1 ms.
_MAX_TIMEOUT_S = (2**31 - 1) // 1000

#: ``generate --tree-height`` default; any other height needs ``--hold``.
_TREE_HEIGHT = 2


def _check_table(args: argparse.Namespace) -> str | None:
    """The table id exists and takes every flag given (see ``Artifact.flags``)."""
    from repro.experiments.artifacts import ARTIFACTS

    artifact = ARTIFACTS.get(args.table)
    if artifact is None:
        return f"unknown table {args.table!r} (one of {', '.join(ARTIFACTS)})"
    for flag, default in _ARTIFACT_FLAGS.items():
        if getattr(args, flag) == default or flag in artifact.flags:
            continue
        takers = [a.id for a in ARTIFACTS.values() if flag in a.flags]
        where = f"table {takers[0]}" if len(takers) == 1 else f"tables {', '.join(takers)}"
        return f"--{flag} applies only to {where}, not {args.table}"
    return None


def _check_outputs(args: argparse.Namespace) -> str | None:
    """The ``--db`` file is no directory and has one to go in."""
    import os

    if not args.db:
        return None
    directory = os.path.dirname(os.path.abspath(args.db))
    if not os.path.isdir(directory):
        return f"cannot write --db {args.db}: no directory {directory}"
    if os.path.isdir(args.db):
        return f"cannot write --db {args.db}: it is a directory"
    return None


def _check_args(args: argparse.Namespace) -> str | None:
    """Fail-fast guard for every subcommand's arguments.

    Returns the one-line error message to print (the caller exits 2), or
    ``None`` when the arguments are valid.  Checks benchmark and table
    names, numeric ranges, table-specific flags, a ``--tree-height`` that
    asks for a height without ``--hold``, and the ``--db`` path (which
    ``stats`` and ``db`` require) -- all before any work, so a bad value
    never becomes a traceback, an empty result, or a failure on every
    row.
    """
    if hasattr(args, "circuit"):
        from repro.circuits.benchmarks import available

        names = [args.circuit]
        if getattr(args, "driver", None) not in (None, "buffers"):
            names.append(args.driver)
        for name in names:
            if name not in available():
                return f"unknown benchmark {name!r} (see repro-eda circuits)"
    for name, least, what in _INT_MINIMUMS:
        value = getattr(args, name, None)
        if value is not None and value < least:
            return f"{name.replace('_', '-')} must be {what}, got {value!r}"
    for name in ("time_limit", "timeout"):
        value = getattr(args, name, None)
        if value is not None and not value > 0:
            return (
                f"{name.replace('_', '-')} must be a positive number of "
                f"seconds, got {value!r}"
            )
    timeout = getattr(args, "timeout", None)
    if timeout is not None and timeout > _MAX_TIMEOUT_S:
        return f"timeout must be at most {_MAX_TIMEOUT_S} seconds, got {timeout!r}"
    if args.command == "generate" and not args.hold and args.tree_height != _TREE_HEIGHT:
        return "--tree-height applies only with --hold"
    if args.command in ("stats", "db") and not args.db:
        return "no database: pass --db PATH"
    if args.command == "table" and (problem := _check_table(args)):
        return problem
    if args.command in ("generate", "table"):
        return _check_outputs(args)
    return None


def _recorder(db, run_id: int):
    """The ``record(index, key, outcome)`` callback storing one resolved row.

    A list/tuple outcome -- e.g. all Table 4.3 rows of one target --
    flattens to one database row per element, keyed ``<key>#<i>``, so
    the stored rows line up one-to-one with the rendered table's rows,
    each with status ``ok``.  A :class:`repro.experiments.runner.TaskFailure`
    stores a ``failed`` row carrying its description.
    """
    from repro.expdb import payload_of
    from repro.experiments.runner import TaskFailure

    def record(index: int, key: str, outcome) -> None:
        if isinstance(outcome, TaskFailure):
            failure = {"failure": outcome.describe(), "message": outcome.message}
            db.record_row(run_id, key, index, failure, status="failed")
        elif isinstance(outcome, (list, tuple)):
            for i, item in enumerate(outcome):
                db.record_row(run_id, f"{key}#{i}", index, payload_of(item))
        else:
            db.record_row(run_id, key, index, payload_of(outcome))

    return record


def _run_campaign(args: argparse.Namespace, kind: str, label: str, params, body) -> int:
    """Run ``body(args, record)`` for ``generate``/``table``: the owner of the run.

    With ``--db`` it opens the experiment database once (a path that
    holds no database exits 2 before any work), begins the run with the
    fingerprint of ``params`` and hands ``body`` a :func:`_recorder`
    callback; without it ``record`` is ``None`` and the database is never
    imported.  ``--stats`` and ``--db`` collect metrics from an empty
    registry.  The run report prints after ``body``; the ``finally``
    stores the snapshot and its spans, finishes the run, closes the
    database, and last restores the enabled flag it found.  The run's
    ``executor`` column records where tasks run, by the runner's own
    rule (:func:`repro.experiments.runner.runs_inline`).
    """
    import time

    from repro import obs

    db = run_id = record = None
    if args.db:
        from repro.expdb import ExperimentDB, ExperimentDBError

        try:
            db = ExperimentDB(args.db)
        except ExperimentDBError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    was_enabled = obs.enabled()
    if args.stats or db is not None:
        obs.reset()
        obs.enable()
    started = time.monotonic()
    code = 1
    try:
        if db is not None:
            from repro.expdb import fingerprint_of
            from repro.experiments.runner import runs_inline

            inline = runs_inline(getattr(args, "jobs", 1), getattr(args, "timeout", None))
            run_id = db.begin_run(
                kind,
                label,
                fingerprint=fingerprint_of(params),
                executor="inprocess" if inline else "pool",
                argv=args.argv,
            )
            record = _recorder(db, run_id)
        code = body(args, record)
        if args.stats:
            print()
            print(obs.render_report(obs.registry()))
        return code
    finally:
        if run_id is not None:
            db.finish_run(
                run_id,
                snapshot=obs.snapshot(),
                status="ok" if code == 0 else "failed",
                exit_code=code,
                elapsed_s=time.monotonic() - started,
            )
        if db is not None:
            db.close()
        if not was_enabled:
            obs.disable()


def _cmd_circuits(args: argparse.Namespace) -> int:
    from repro.circuits.benchmarks import available, entry

    print(f"{'name':12s} {'family':8s} {'PI':>4s} {'PO':>4s} {'FF':>5s} {'gates':>6s}  flags")
    for name in available():
        e = entry(name)
        flags = []
        if not e.synthetic:
            flags.append("real")
        if e.scaled:
            flags.append("scaled")
        print(
            f"{e.name:12s} {e.family:8s} {e.n_inputs:4d} {e.n_outputs:4d} "
            f"{e.n_flops:5d} {e.n_gates:6d}  {','.join(flags) or '-'}"
        )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.bist.tpg import DevelopedTpg
    from repro.circuits.benchmarks import get_circuit
    from repro.circuits.scan import ScanChains
    from repro.paths.enumeration import count_paths

    circuit = get_circuit(args.circuit)
    stats = circuit.stats()
    for key, value in stats.items():
        print(f"{key:10s} {value}")
    print(f"{'paths':10s} {count_paths(circuit)}")
    chains = ScanChains.partition(circuit)
    print(f"{'chains':10s} {chains.num_chains} (Lsc={chains.max_length})")
    tpg = DevelopedTpg.for_circuit(circuit)
    print(
        f"{'tpg':10s} LFSR={tpg.n_lfsr} SR={tpg.n_register_bits} "
        f"NSP={tpg.cube.n_specified}"
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    params = {
        "generate": args.circuit,
        "driver": args.driver,
        "length": args.length,
        "time_limit": args.time_limit,
        "seed": args.seed,
        "hold": bool(args.hold),
        "tree_height": args.tree_height,
    }
    return _run_campaign(args, "generate", args.circuit, params, _run_generate)


def _run_generate(args: argparse.Namespace, record) -> int:
    """Body of ``repro-eda generate`` once dispatch knobs are validated.

    With ``--db`` the result lands as one ``generate/<circuit>`` row.
    """
    from repro.circuits.benchmarks import get_circuit
    from repro.core.builtin_gen import BuiltinGenConfig, BuiltinGenerator
    from repro.core.state_holding import run_with_state_holding
    from repro.experiments.tables4 import swa_func_of
    from repro.faults.collapse import collapsed_transition_faults

    target = get_circuit(args.circuit)
    faults = collapsed_transition_faults(target)
    config = BuiltinGenConfig(
        segment_length=args.length,
        time_limit=args.time_limit,
        rng_seed=args.seed,
    )
    swa_func = None
    if args.driver not in (None, "buffers"):  # buffers: no bound, as in Table 4.3
        swa_func = swa_func_of(target, args.driver)
        print(f"SWA_func under {args.driver}: {swa_func:.2f}%")
    result = BuiltinGenerator(target, faults, swa_func, config=config).run()
    if record is not None:
        record(
            0,
            f"generate/{args.circuit}",
            {
                "circuit": args.circuit,
                "driver": args.driver,
                "n_multi": result.n_multi,
                "n_seg_max": result.n_seg_max,
                "l_max": result.l_max,
                "n_seeds": result.n_seeds,
                "n_tests": result.n_tests,
                "peak_swa": round(result.peak_swa, 4),
                "coverage": round(result.coverage, 4),
                "area_total": round(result.area.total, 2),
                "area_overhead_percent": round(result.area.overhead_percent, 4),
            },
        )
    print(
        f"Nmulti={result.n_multi} Nsegmax={result.n_seg_max} Lmax={result.l_max} "
        f"Nseeds={result.n_seeds} Ntests={result.n_tests}"
    )
    print(f"peak SWA {result.peak_swa:.2f}%  FC {result.coverage:.2f}%")
    print(
        f"hardware {result.area.total:.0f} um^2 "
        f"({result.area.overhead_percent:.2f}% overhead)"
    )
    if args.hold:
        remaining = [f for f in faults if f not in result.detected]
        holding = run_with_state_holding(
            target,
            remaining,
            swa_func,
            tree_height=args.tree_height,
            config=config,
        )
        improvement = 100.0 * len(holding.newly_detected) / len(faults)
        print(
            f"state holding: {holding.n_sets} sets "
            f"({holding.n_bits} bits), +{improvement:.2f}% FC "
            f"-> {result.coverage + improvement:.2f}%"
        )
    return 0


def _cmd_tpdf(args: argparse.Namespace) -> int:
    from repro.atpg.tpdf import ABORTED, DETECTED, TpdfPipeline, UNDETECTABLE
    from repro.circuits.benchmarks import get_circuit
    from repro.faults.lists import tpdf_list_all_paths, tpdf_list_longest_first
    from repro.paths.enumeration import count_paths

    circuit = get_circuit(args.circuit)
    if count_paths(circuit) <= 4 * args.max_faults:
        faults = tpdf_list_all_paths(circuit)[: args.max_faults]
        workload = "all paths"
    else:
        faults = tpdf_list_longest_first(circuit, args.max_faults // 2)
        workload = "longest paths"
    report = TpdfPipeline(circuit).run(faults)
    print(f"workload: {workload}, {len(faults)} TPDFs")
    print(f"detected     {report.count(DETECTED)}")
    print(f"undetectable {report.count(UNDETECTABLE)}")
    print(f"aborted      {report.count(ABORTED)}")
    print(f"total time   {report.total_time:.2f}s")
    return 0


def _cmd_select_paths(args: argparse.Namespace) -> int:
    from repro.circuits.benchmarks import get_circuit
    from repro.paths.selection import PathSelector

    selector = PathSelector(get_circuit(args.circuit), closure_scan=24)
    result = selector.run(n=args.n)
    print(
        f"Target_PDF: {result.original_size} before, {result.final_size} after "
        f"({len(result.undetectable)} undetectable screened)"
    )
    for i, fault in enumerate(result.select(), start=1):
        record = result.records[fault]
        final = f"{record.final_delay:.3f}" if record.final_delay else "blocked"
        print(
            f"fp{i:<3d} original {record.original_delay:.3f} ns  final {final} ns"
            f"  [{fault.direction} {fault.path}]"
        )
    print(f"selection differs from traditional STA in {result.unique_to_one_set()} fault(s)")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments.artifacts import ARTIFACTS

    params = {"table": args.table, **ARTIFACTS[args.table].params}
    return _run_campaign(args, "table", args.table, params, _run_table)


def _run_table(args: argparse.Namespace, record) -> int:
    """Body of ``repro-eda table`` once dispatch knobs are validated."""
    from repro.experiments.artifacts import ARTIFACTS, Dispatch, failures

    def progress(i: int, task, outcome) -> None:
        """Store each resolved row (``--db``) and print its progress line."""
        if record is not None:
            record(i, task.key, outcome)
        if args.jobs > 1 and not args.quiet:
            print(f"row {i + 1} done: {task.key}", file=sys.stderr, flush=True)

    artifact = ARTIFACTS[args.table]
    value = artifact.run(Dispatch(jobs=args.jobs, progress=progress, timeout=args.timeout))
    print(artifact.render(value))
    failed = failures(value)
    if failed:
        # Degrade late: the table above is complete minus the failed
        # rows; the nonzero exit flags the campaign as partial.
        print(f"{len(failed)} row(s) failed:", file=sys.stderr)
        for f in failed:
            print(f"  {f.key}: {f.describe()} ({f.message})", file=sys.stderr)
    return 1 if failed else 0


def _history_db(path: str):
    """The existing experiment database at ``path``, for a read-only command.

    Raises :class:`repro.expdb.ExperimentDBError` instead of creating an
    empty database where a mistyped path points.
    """
    import os

    from repro.expdb import ExperimentDB, ExperimentDBError

    if not os.path.exists(path):
        raise ExperimentDBError(f"no experiment database at {path}")
    return ExperimentDB(path)


def _cmd_stats(args: argparse.Namespace) -> int:
    """Render a stored run's report and span tree (``repro-eda stats --db PATH``)."""
    from repro.expdb import ExperimentDBError
    from repro.obs import render_report, render_trace

    try:
        with _history_db(args.db) as db:
            run_id = args.run if args.run is not None else db.latest_run_id()
            if run_id is None:
                print(f"no runs recorded in {args.db}", file=sys.stderr)
                return 1
            run = db.run(run_id)
            snapshot = db.run_snapshot(run_id)
    except ExperimentDBError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    title = (
        f"run {run_id}: {run['kind']} {run['label']} "
        f"({run['started_utc']}, {run['status']}, code {run['code_hash']})"
    )
    print(render_report(snapshot, title=title))
    if snapshot["events"]:
        print()
        print(render_trace(snapshot["events"], limit=args.limit))
    return 0


def _cmd_db(args: argparse.Namespace) -> int:
    """``repro-eda db {runs,show,query,trend,gate}`` over the experiment DB."""
    from repro import expdb

    try:
        db = _history_db(args.db)
    except expdb.ExperimentDBError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.action == "runs":
            return _db_runs(db, args)
        if args.action == "show":
            return _db_show(db, args)
        if args.action == "query":
            if not args.arg:
                print("error: db query needs a SQL statement", file=sys.stderr)
                return 2
            try:
                columns, rows = db.query(args.arg)
            except expdb.ExperimentDBError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if columns:
                print("\t".join(columns))
            for row in rows:
                print("\t".join("" if v is None else str(v) for v in row))
            return 0
        if args.action == "trend":
            return _db_trend(db, args)
        # gate: the bounds come from ./BENCHMARK.json, read only here.
        try:
            result = expdb.gate(db, expdb.load_bounds("BENCHMARK.json"), last=args.last)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if result.batch is None:
            # Nothing to judge: a pass would vouch for a database that
            # no benchmark run ever recorded into.
            print(
                f"error: no bench batch in {args.db} (record one with "
                "benchmarks/e2e/run.py --record)",
                file=sys.stderr,
            )
            return 2
        print(result.report())
        return 0 if result.ok else 1
    finally:
        db.close()


def _db_runs(db, args: argparse.Namespace) -> int:
    """Print the newest-first run listing for ``repro-eda db runs``."""
    runs = db.runs(limit=args.limit)
    if not runs:
        print(f"no runs recorded in {db.path}", file=sys.stderr)
        return 0
    print(
        f"{'id':>4s} {'started (UTC)':20s} {'kind':9s} {'label':10s} "
        f"{'status':7s} {'rows':>5s} {'metrics':>7s} {'code':16s} {'fingerprint':16s}"
    )
    for r in runs:
        print(
            f"{r['id']:4d} {r['started_utc']:20s} {r['kind']:9s} "
            f"{str(r['label']):10s} {r['status']:7s} {r['n_rows']:5d} "
            f"{r['n_metrics']:7d} {r['code_hash']:16s} {r['fingerprint'] or '-':16s}"
        )
    return 0


def _db_show(db, args: argparse.Namespace) -> int:
    """Print one run's summary + rows for ``repro-eda db show [RUN]``."""
    from repro import expdb

    if args.arg and not args.arg.isdigit():
        print(f"error: db show needs a run id, got {args.arg!r}", file=sys.stderr)
        return 2
    run_id = int(args.arg) if args.arg else db.latest_run_id()
    if run_id is None:
        print(f"no runs recorded in {db.path}", file=sys.stderr)
        return 1
    try:
        run = db.run(run_id)
    except expdb.ExperimentDBError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key in (
        "id", "kind", "label", "status", "exit_code", "started_utc",
        "finished_utc", "elapsed_s", "fingerprint", "code_hash", "kernel",
        "executor", "argv",
    ):
        print(f"{key:13s} {run.get(key)}")
    rows = db.rows(run_id)
    print(f"{'rows':13s} {len(rows)}")
    for row in rows:
        payload = row["payload"]
        summary = ""
        if isinstance(payload, dict):
            summary = " ".join(
                f"{k}={v}" for k, v in list(payload.items())[:6]
            )
        print(f"  [{row['status']:7s}] {row['key']:24s} {summary}")
    return 0


def _db_trend(db, args: argparse.Namespace) -> int:
    """Print one metric's per-run history for ``repro-eda db trend``."""
    metric = args.metric or args.arg
    if not metric:
        print("error: db trend needs --metric NAME", file=sys.stderr)
        return 2
    last = args.last or None  # 0: every run
    rows = db.metric_trend(metric, last=last)
    if rows:
        print(
            f"{'run':>4s} {'campaign':14s} {'started (UTC)':20s} "
            f"{'code':16s} {'value':>14s}"
        )
        for r in rows:
            campaign = f"{r['kind']} {r['label']}"
            print(
                f"{r['run_id']:4d} {campaign:14s} {r['started_utc']:20s} "
                f"{r['code_hash']:16s} {r['value']:14g}"
            )
        return 0
    # Fall back to bench-sample history for section.subject.metric names.
    parts = metric.split(".")
    if len(parts) == 3:
        history = db.bench_history(*parts, last=last)
        if history:
            print(f"bench {metric} (newest first): " + ", ".join(f"{v:g}" for v in history))
            return 0
    print(f"no history for metric {metric!r} in {db.path}", file=sys.stderr)
    return 1


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage errors are one ``error:`` line.

    ``add_subparsers`` builds every subcommand parser from this class too.
    """

    def error(self, message: str) -> NoReturn:
        """Print ``error: <message>`` alone and exit 2, without the usage block."""
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = _Parser(
        prog="repro-eda",
        description="Built-in generation of functional broadside tests "
        "(DATE 2011 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("circuits", help="list benchmark circuits").set_defaults(
        func=_cmd_circuits
    )

    p = sub.add_parser("info", help="circuit and TPG parameters")
    p.add_argument("circuit", help="benchmark name (see `repro-eda circuits`)")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("generate", help="built-in functional broadside generation")
    p.add_argument("circuit", help="target circuit name (see `repro-eda circuits`)")
    p.add_argument(
        "--driver",
        help="driving block whose SWA_func bounds the switching activity; "
        "'buffers' runs unconstrained, like no --driver",
    )
    p.add_argument("--length", type=int, default=200, help="segment length L")
    p.add_argument(
        "--time-limit", type=float, default=30.0, help="generation budget in seconds"
    )
    p.add_argument("--seed", type=int, default=1, help="RNG seed for seed trials")
    p.add_argument("--hold", action="store_true", help="run the state-holding DFT")
    p.add_argument(
        "--tree-height",
        type=int,
        default=_TREE_HEIGHT,
        help="binary-tree height for state-holding set selection (with --hold)",
    )
    p.add_argument(
        "--stats", action="store_true", help="print the observability run report"
    )
    p.add_argument(
        "--db",
        metavar="PATH",
        help="record this run (fingerprint, result row, metric snapshot and "
        "spans) into the experiment database at PATH (implies metric "
        "collection)",
    )
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("tpdf", help="transition path delay fault ATPG")
    p.add_argument("circuit", help="target circuit name (see `repro-eda circuits`)")
    p.add_argument(
        "--max-faults", type=int, default=100, help="cap on TPDFs to classify"
    )
    p.set_defaults(func=_cmd_tpdf)

    p = sub.add_parser("select-paths", help="critical path selection")
    p.add_argument("circuit", help="target circuit name (see `repro-eda circuits`)")
    p.add_argument("--n", type=int, default=6, help="paths to select initially")
    p.set_defaults(func=_cmd_select_paths)

    p = sub.add_parser("table", help="regenerate a paper table, figure or ablation")
    p.add_argument(
        "table",
        help="artifact id, e.g. 2.1, 3.4, 4.3, chapter4, fig1-scan, ndetect "
        "(an unknown id lists them all)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for per-circuit experiment rows "
        "(results are identical for any value; tables 4.3, 4.4 and chapter4)",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress per-row progress lines"
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-row deadline; rows then run on worker processes even at "
        "--jobs 1, and a row that overruns it is killed and FAILED "
        "(tables 4.3, 4.4 and chapter4)",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print the merged observability run report (workers included)",
    )
    p.add_argument(
        "--db",
        metavar="PATH",
        help="record this run (fingerprint, every table row, the merged "
        "metric snapshot and spans) into the experiment database at PATH "
        "(implies metric collection)",
    )
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser(
        "stats", help="render a stored run's report and span tree"
    )
    p.add_argument(
        "--limit",
        type=int,
        default=40,
        help="max span-tree lines to print (summary always covers everything)",
    )
    p.add_argument(
        "--db",
        metavar="PATH",
        help="experiment database holding the run (required)",
    )
    p.add_argument(
        "--run",
        type=int,
        default=None,
        metavar="N",
        help="run id to report on (default: the newest recorded run)",
    )
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("db", help="query the experiment database")
    p.add_argument(
        "action",
        choices=("runs", "show", "query", "trend", "gate"),
        help="runs: list recorded runs; show: one run's rows and summary; "
        "query: run a read-only SQL statement; trend: one metric across "
        "runs; gate: judge the newest benchmarks/e2e batch against rolling "
        "history with the bounds of ./BENCHMARK.json",
    )
    p.add_argument(
        "arg",
        nargs="?",
        help="SQL statement (query), run id (show), or metric name (trend)",
    )
    p.add_argument(
        "--db",
        metavar="PATH",
        help="experiment database path (required)",
    )
    p.add_argument(
        "--metric",
        metavar="NAME",
        help="metric to trend: an obs metric name, or a bench "
        "section.subject.metric triple",
    )
    p.add_argument(
        "--last",
        type=int,
        default=5,
        metavar="N",
        help="history window: earlier batches the gate's rolling median "
        "covers (at least 2), or trend rows shown (default 5; 0 means "
        "unlimited for trend)",
    )
    p.add_argument(
        "--limit",
        type=int,
        default=20,
        metavar="N",
        help="max runs listed by `db runs`",
    )
    p.set_defaults(func=_cmd_db)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a one-line usage error (2)
        return exc.code
    # The verbatim invocation, recorded on experiment-database runs.
    args.argv = list(argv) if argv is not None else sys.argv[1:]
    problem = _check_args(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/grep that exited early -- not an error.
        try:
            sys.stdout.close()
        except OSError:  # pragma: no cover - double-close race
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
