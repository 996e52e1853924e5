#!/usr/bin/env python3
"""Observability overhead on the shipped Table 4.3 run: the 2% budget.

Runs ``repro-eda table 4.3 --quiet`` in this process with metric
collection off and on (``--stats``): one warm-up of each, then ten
interleaved pairs that alternate which side runs first.  Each side keeps
its minimum wall time, because back-to-back blocks of one mode favour
whichever runs later.  The table text must be identical with and without
collection, and the exit status is 1 when the enabled side is more than
2% slower.

    PYTHONPATH=src python benchmarks/obs_overhead.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import time

from repro import cli

#: Maximum tolerated enabled-vs-disabled wall-time overhead (fraction).
BUDGET = 0.02
#: Timed off/on pairs after the warm-up.
PAIRS = 10
ARGV = ["table", "4.3", "--quiet"]


def run(stats: bool) -> tuple[float, str]:
    """One in-process table run: (wall seconds, everything it printed).

    A ``--stats`` run collects from an empty registry and switches
    collection off again when it ends, so no run sees another's metrics.
    """
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(ARGV + ["--stats"] if stats else ARGV)
    wall = time.perf_counter() - start
    if code != 0:
        sys.exit(f"repro-eda {' '.join(ARGV)} exited {code}")
    return wall, out.getvalue()


def main() -> int:
    _, table = run(stats=False)
    run(stats=True)
    best = {False: float("inf"), True: float("inf")}
    for pair in range(PAIRS):
        for stats in (False, True) if pair % 2 == 0 else (True, False):
            wall, text = run(stats)
            # --stats prints the same table, then the run report.
            if not (text.startswith(table) if stats else text == table):
                print("error: the table text differs with --stats", file=sys.stderr)
                return 1
            best[stats] = min(best[stats], wall)
    overhead = best[True] / best[False] - 1.0
    print(
        f"table 4.3: collection off {best[False]:.3f} s, on {best[True]:.3f} s, "
        f"overhead {overhead:+.1%} (budget {BUDGET:.0%}, minimum of {PAIRS} "
        "interleaved pairs)"
    )
    return 1 if overhead > BUDGET else 0


if __name__ == "__main__":
    sys.exit(main())
