"""EXPERIMENTS.md generator: paper vs. measured for every registry artifact.

Runs every entry of :mod:`repro.experiments.artifacts` once, at its one
shipped configuration, and renders a markdown report.  Each Measured
block is the text ``repro-eda table ID`` prints for that entry, followed
by one PASS/FAIL line per shape check.  Paper reference values (from the
dissertation's tables) are embedded alongside, so the *shape* comparison
-- who wins, by roughly what factor, where the behaviour flips -- is
explicit even though absolute numbers differ (synthetic benchmark
stand-ins, scaled workloads; see DESIGN.md).

Usage::

    python -m repro.experiments.report [output-path]
"""

from __future__ import annotations

import sys
import time

from repro.experiments.artifacts import ARTIFACTS

#: Representative rows from the dissertation's tables, quoted for the
#: shape comparison (circuit: (faults, detected, undetectable, aborted)).
PAPER_TABLE_2_1 = {
    "s27": (56, 25, 31, 0),
    "s298": (462, 127, 335, 0),
    "s344": (710, 259, 451, 0),
    "s1494": (1952, 723, 1229, 0),
}
PAPER_TABLE_2_3 = {  # circuit: (prep upper bound, fsim, heuristic, bnb)
    "s27": (25, 19, 6, 0),
    "s298": (163, 104, 22, 1),
    "s344": (340, 153, 86, 20),
}
PAPER_TABLE_4_3_SHAPE = (
    "s35932: buffers SWA 43.48 -> FC 94.94; spi-driven SWA 23.08 -> FC 87.33 "
    "(large SWA_func drop costs coverage); aes_core-driven SWA 43.33 -> FC 94.94 "
    "(small drop costs nothing)"
)
PAPER_TABLE_4_4_SHAPE = (
    "s35932/spi: +5.62 FC; b14: +13.4-13.8 FC; area overhead grows by <1% "
    "over the Table 4.3 hardware"
)


def _section(title: str, body: list[str]) -> list[str]:
    return [f"## {title}", ""] + body + [""]


def _runbook(ids: list[str], wall: str, read: str, extra: tuple[str, ...] = ()) -> list[str]:
    """A "Reproduce" block: the commands, expected wall-clock, how to read."""
    commands = [f"repro-eda table {i}" for i in ids] + list(extra)
    tail = f"*Expected wall-clock: {wall}.*  {read}"
    return ["**Reproduce:**", "```bash", *commands, "```", tail]


def _checks(values: dict, ids: list[str]) -> list[str]:
    """One ``PASS``/``FAIL`` line per shape check of each artifact in ``ids``."""
    lines = ["**Checks:**"]
    for artifact_id in ids:
        for name, reason in ARTIFACTS[artifact_id].check(values[artifact_id]):
            verdict = "PASS" if reason is None else "FAIL"
            tail = "" if reason is None else f" — {reason}"
            lines.append(f"- {verdict} `{artifact_id}`: {name}{tail}")
    return lines + [""]


def _block(label: str, texts: list[str]) -> list[str]:
    return [label, "```", *texts, "```", ""]


def _measured(values: dict, ids: list[str], label: str = "**Measured:**") -> list[str]:
    """The artifacts' text in one fenced block, then their check lines."""
    texts = [ARTIFACTS[i].render(values[i]) for i in ids]
    return _block(label, texts) + _checks(values, ids)


def generate_report() -> str:
    """Run every registry artifact and render the markdown report."""
    t_start = time.time()
    values = {artifact_id: a.run() for artifact_id, a in ARTIFACTS.items()}
    lines: list[str] = [
        "# EXPERIMENTS — paper vs. measured, and how to rerun everything",
        "",
        "Every table, figure and ablation of the dissertation's evaluation is",
        "an entry of the artifact registry (`repro.experiments.artifacts`),",
        "run at its one shipped configuration by `repro-eda table ID` and",
        "summarised here.  Absolute numbers differ from the paper because the",
        "benchmark circuits are synthetic stand-ins and workloads are scaled",
        "for pure Python (see DESIGN.md, *Substitutions*); the comparisons",
        "below therefore focus on the paper's qualitative claims.",
        "",
        "Each Measured block is what `repro-eda table ID` prints (Chapter 2",
        "run times are wall clock, so they vary from run to run; no clock",
        "decides a count), followed by",
        "one PASS/FAIL line per shape check of that artifact; the tier-1",
        "suite runs the same checks on reduced inputs.  Each section carries",
        "a **Reproduce** block with the exact commands, their expected",
        "wall-clock on a 2-vCPU x86-64 host, and what to look for in the",
        "output.  See `docs/CLI.md` for every flag, and `docs/ARCHITECTURE.md`",
        "(*Experiment database*) for recording runs and gating the benchmark history.",
        "Regenerate this file with `python -m repro.experiments.report`",
        "(about 20-30 s).",
        "",
    ]

    # ------------------------------------------------------------------
    # Chapter 2
    # ------------------------------------------------------------------
    body = [
        "**Paper (Table 2.1, excerpt):** "
        + "; ".join(
            f"{c}: {n} faults, {d} det, {u} undet, {a} abr"
            for c, (n, d, u, a) in PAPER_TABLE_2_1.items()
        ),
        "",
        *_measured(values, ["2.1", "2.2"]),
        "**Shape:** most faults are proven detected or undetectable; aborted",
        "faults are rare on small circuits — matches.  On the real `s27`",
        "netlist our exhaustive ground truth finds 23 detectable TPDFs vs the",
        "paper's 25; the pipeline classifies all 56 faults with zero false",
        "claims (verified against all 2048 broadside tests), so the ±2 is a",
        "detection-semantics/netlist-variant difference, not a search gap.",
        "Table 2.2's longest paths of the s526 stand-in are all undetectable",
        "or aborted within the 200-fault cap, so its detection check fails.",
        "",
    ] + _runbook(
        ["2.1", "2.2"],
        "about 2.5 s (2.1) / 5.5 s (2.2)",
        "Columns: faults classified, then Det./Undet./Abr. counts per circuit;"
        " Det. + Undet. + Abr. always sums to the fault count.",
    )
    lines += _section("Tables 2.1 / 2.2 — TPDF classification", body)

    body = [
        "**Paper (Table 2.3, excerpt):** "
        + "; ".join(
            f"{c}: prep<= {p}, fsim {f}, heur {h}, bnb {b}"
            for c, (p, f, h, b) in PAPER_TABLE_2_3.items()
        ),
        "",
        *_measured(values, ["2.3", "2.4"]),
        "**Shape:** the preprocessing procedure proves the bulk of the",
        "undetectable faults; fault simulation of the transition-fault tests",
        "plus the heuristic detect most detectable faults; branch-and-bound",
        "mops up a minority — matches the paper's observations.",
        "",
    ] + _runbook(
        ["2.3", "2.4"],
        "about 2.5 s (2.3) / 5.5 s (2.4), each the run of Table 2.1 / 2.2",
        "One column per sub-procedure; a fault is credited to the first"
        " sub-procedure that detects it, so rows sum to the detected count.",
    )
    lines += _section("Tables 2.3 / 2.4 — detections per sub-procedure", body)

    body = [
        "**Paper (Tables 2.5/2.6):** sub-procedure run times; the cheap",
        "passes cost a small fraction of branch-and-bound (e.g. s713: fsim",
        "0:01 vs bnb 3:17:28).",
        "",
        *_measured(values, ["2.5", "2.6"]),
        "**Shape:** preprocessing + fault simulation stay near-zero while the",
        "heuristic and branch-and-bound dominate the budget — matches.",
        "",
    ] + _runbook(
        ["2.5", "2.6"],
        "about 2.5 s (2.5) / 5 s (2.6)",
        "Wall-clock per sub-procedure in h:mm:ss; compare columns within a"
        " row, not across machines.",
    )
    lines += _section("Tables 2.5 / 2.6 — run time per sub-procedure", body)

    # ------------------------------------------------------------------
    # Chapter 3
    # ------------------------------------------------------------------
    _, sel = values["3.1"]
    body = [
        "**Paper (Table 3.1, s13207):** 16 initial faults; recalculated",
        "delays drop by up to 0.06 ns; 8 new faults absorbed (fp17-fp24);",
        "ranks change in all three ways described in Section 3.3.2.",
        "",
        *_block("**Measured (s298 stand-in):**", [ARTIFACTS["3.1"].render(values["3.1"])]),
        f"Target_PDF grew {sel.original_size} -> {sel.final_size}; the refined",
        f"selection differs from traditional STA in {sel.unique_to_one_set()}",
        "fault(s).  **Shape:** delays never increase, usually decrease, and",
        "the closure can absorb newly-critical faults — matches.",
        "",
        *_checks(values, ["3.1"]),
        "**Paper (Tables 3.2/3.3):** Target_PDF grows after recalculation for",
        "many circuits, and the refined and traditional selections differ.",
        "",
        *_measured(values, ["3.2", "3.3"]),
    ] + _runbook(
        ["3.1", "3.2", "3.3"],
        "about 0.7 s (3.1) / 1.5 s (3.2, 3.3)",
        "Per fault: the original STA delay, the recalculated (final) delay"
        " after case-analysis constants, and any newly-absorbed paths --"
        " final never exceeds original.",
        ("repro-eda select-paths s298 --n 6          # the selection flow",),
    )
    lines += _section("Tables 3.1 / 3.2 / 3.3 — path selection", body)

    body = [
        "**Paper (Table 3.4, s13207):** original >= final >= after-TG for",
        "every fault; diffs of 0.03-0.06 ns = 1-2 inverter delays.",
        "**Paper (Table 3.5):** Pct.1 14-99%, Pct.2 21-89% across circuits.",
        "",
        *_measured(values, ["3.4", "3.5"]),
        "**Shape:** the ordering original >= final >= after-TG holds for",
        "every measured fault, diffs are a few unit (inverter) delays, and",
        "for most faults whose original delay is wrong the recalculated one",
        "is closer — matches.",
        "",
    ] + _runbook(
        ["3.4", "3.5"],
        "about 1.2 s (3.4) / 2 s (3.5)",
        "`diff_unit` is the original-vs-after-TG gap in inverter delays;"
        " Pct.1/Pct.2 are the share of faults whose recalculated delay is"
        " closer to the post-TG truth.",
    )
    lines += _section("Tables 3.4 / 3.5 — delay accuracy", body)

    # ------------------------------------------------------------------
    # Chapter 4
    # ------------------------------------------------------------------
    _, subs = values["4.1"]
    trace = ARTIFACTS["4.1"].params
    body = [
        "**Paper (Table 4.1):** a trace with two violating cycles splits into",
        "three admissible subsequences (P0,j / Pj+1,u / Pu+1,L).",
        "",
        f"**Measured:** a {trace['length']}-cycle {trace['target_name']} trace splits "
        f"into subsequences {subs}",
        "with the violating cycles excluded — same mechanism.",
        "",
        *_measured(values, ["4.1"], "**Measured (the trace):**"),
        "**Paper (Table 4.2):** interface parameters incl. N_SP (biasing",
        "gates); N_SP is small relative to N_PI (e.g. s35932: 1 of 35).",
        "",
        *_measured(values, ["4.2"]),
    ] + _runbook(
        ["4.1", "4.2"],
        "under 1 s each",
        "NPO/NPI are the embedded interface widths, NSP the biasing gates,"
        " NSV the state variables -- NSP stays small relative to NPI.",
    )
    lines += _section("Tables 4.1 / 4.2 — workload parameters", body)

    base, _ = values["chapter4"]
    body = [
        f"**Paper (Table 4.3, shape):** {PAPER_TABLE_4_3_SHAPE}.",
        "",
        *_block("**Measured:**", [ARTIFACTS["4.3"].render(base)]),
        "This is the Table 4.3 half of `repro-eda table chapter4` (targets",
        "s298 + s344, every driver, `rng_seed=2`); its checks are listed",
        "under Table 4.4.",
        "",
        "**Shape:** SWA_func under a constraining driving block is lower than",
        "under `buffers`; the applied tests' peak SWA never exceeds the bound",
        "(asserted per-cycle by the test suite); a small SWA_func reduction",
        "costs little or no coverage while a large one costs noticeably;",
        "hardware area barely varies across targets and its relative overhead",
        "shrinks with circuit size — all match.  (Per-cycle bound compliance",
        "is re-verified by `tests/test_builtin_gen.py`.)",
        "",
        *_measured(values, ["4.3"], "**Measured (`repro-eda table 4.3`, s27 + s298):**"),
    ] + _runbook(
        ["4.3", "chapter4"],
        "about 0.5 s (4.3) / 1.2 s (chapter4) on a 2-vCPU x86-64 host",
        "Per row: the SWA_func bound from the driving block, the applied"
        " tests' peak SWA (never above the bound), fault coverage, and the"
        " hardware area model -- `buffers` rows are the unconstrained"
        " baseline.",
        (
            "",
            "# the full campaign toolkit -- rows fan out over 4 workers and",
            "# the merged run report prints at the end (output is",
            "# byte-identical for ANY --jobs value, including 1; a killed",
            "# run, run again, prints the same rows):",
            "repro-eda table 4.3 --jobs 4 --stats",
            "",
            "# bound each row: a row that overruns, crashes or raises prints",
            "# as FAILED and the run exits 1 (run it again to retry):",
            "repro-eda table 4.3 --jobs 2 --timeout 120",
        ),
    )
    lines += _section("Table 4.3 — built-in generation under PI constraints", body)

    body = [
        f"**Paper (Table 4.4, shape):** {PAPER_TABLE_4_4_SHAPE}.",
        "",
        *_block("**Measured:**", [ARTIFACTS["4.4"].render(values["chapter4"])]),
        *_checks(values, ["chapter4"]),
        "**Shape:** state holding recovers part of the coverage lost to the",
        "functional-only restriction by steering the circuit into unreachable",
        "states, while per-cycle SWA stays within SWA_func and the extra",
        "hardware is a small increment over the Table 4.3 logic — matches.",
        "",
        *_measured(values, ["4.4"], "**Measured (`repro-eda table 4.4`, s27 + s298):**"),
    ] + _runbook(
        ["4.4"],
        "about 0.7 s (4.4) / 1.2 s (chapter4) on a 2-vCPU x86-64 host",
        "Compare each row's fault coverage against its Table 4.3"
        " counterpart: NSP > 0 rows should close part of the gap to the"
        " unconstrained `buffers` baseline while P_SWA stays at or under"
        " the bound.",
        ("repro-eda table chapter4 --jobs 2 --stats",),
    )
    lines += _section("Table 4.4 — state holding", body)

    # ------------------------------------------------------------------
    # Figures
    # ------------------------------------------------------------------
    body = [
        "Figures are circuit examples, waveforms and hardware schematics;",
        "each is reproduced as executable structure.  DESIGN.md's",
        "per-experiment index maps every figure to the artifact, test or",
        "example that exercises it; the three figure artifacts print:",
        "",
    ]
    for artifact_id in ("fig1-examples", "fig1-scan", "fig4-hardware"):
        body += _measured(values, [artifact_id], f"**Measured (`{artifact_id}`):**")
    body += _runbook(
        ["fig1-examples", "fig1-scan", "fig4-hardware"],
        "about 1 s each",
        "Each artifact prints the figure's claim next to the measured"
        " counterpart (classification, scan comparison verdicts, TPG area"
        " crossover); the example script walks one test through the on-chip"
        " application timeline cycle by cycle.",
        ("python examples/scan_and_onchip_application.py",),
    )
    lines += _section("Figures", body)

    # ------------------------------------------------------------------
    # Extensions
    # ------------------------------------------------------------------
    body = [
        "Beyond the evaluation, the repo implements the models and",
        "extensions the dissertation references:",
        "",
        "* **scan styles** (Section 1.3): enhanced-scan and skewed-load",
        "  two-frame models; `ablation-scan-styles` confirms enhanced",
        "  scan's coverage dominance.",
        "* **n-detection** ([60], Section 4.1): `ndetect` shows the",
        "  built-in test set detects most detected faults many times.",
        "* **patterns of signal-transitions** ([90], Section 5.1 future",
        "  work): implemented as an alternative admissibility rule for the",
        "  construction procedure; `ablation-signal-patterns` verifies it",
        "  implies the SWA bound and restricts coverage.",
        "* **COP-weighted TPG** ([84]-[87]): the Fig 4.8 TPG with per-input",
        "  AND/OR tree widths chosen from COP probabilities;",
        "  `ablation-weighted-tpg` compares it with the input-cube biasing.",
        "",
    ]
    ablations = ["ablation-scan-styles", "ablation-signal-patterns", "ablation-weighted-tpg"]
    for artifact_id in ablations + ["ndetect"]:
        body += _measured(values, [artifact_id], f"**Measured (`{artifact_id}`):**")
    body += _runbook(
        ablations + ["ndetect"],
        "about 3.5 s (scan styles) / 1 s (each other one)",
        "Each ablation prints its rows; its checks above state the ordering"
        " it must show (e.g. enhanced scan detecting at least as many faults"
        " as broadside).",
    )
    lines += _section("Extensions and ablations", body)

    lines.append(f"_Report generated in {time.time() - t_start:.0f}s._")
    lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Write the report to ``EXPERIMENTS.md`` (or the given path)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    out_path = argv[0] if argv else "EXPERIMENTS.md"
    report = generate_report()
    with open(out_path, "w") as fh:
        fh.write(report)
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
