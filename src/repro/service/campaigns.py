"""Campaign execution shared by the CLI and the job service.

The service's whole value proposition is that an HTTP-submitted campaign
is *the same campaign* the CLI runs -- byte-identical rendered output,
identical :mod:`repro.expdb` rows, identical fingerprints.  The only way
to keep that true forever is to run both through one body of code, so
this module owns the execution path and both front ends call it:

* :func:`run_generate` -- the ``repro-eda generate`` flow (SWA_func
  estimation under a driving block, the Fig 4.9 construction loop,
  experiment-database annotation) returning its printable lines;
* :func:`run_campaign` -- dispatch a validated
  :class:`repro.service.spec.CampaignSpec` (``generate`` or ``table``)
  over any :class:`repro.exec.base.Executor`, returning the exact text
  the CLI would print to stdout plus the typed per-row failures.

Per-row progress rides the existing ``progress`` callback of
:func:`repro.experiments.runner.run_tasks`; the service turns each call
into one NDJSON event on ``GET /v1/jobs/{id}/events``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.resilience.policy import TaskFailure

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.base import Executor

    from .spec import CampaignSpec


@dataclass
class GenerateOutcome:
    """Everything ``repro-eda generate`` needs after the run body finishes."""

    lines: list[str]  # exactly what the CLI prints, in order
    result: Any  # the BuiltinGenResult
    faults: list  # the collapsed fault list (state holding reuses it)
    swa_func: float | None  # the driver-derived SWA bound, if any


@dataclass
class CampaignOutcome:
    """One finished campaign: its rendered text and degraded rows."""

    text: str  # byte-identical to the CLI's stdout for this campaign
    failures: list[TaskFailure] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """The CLI-parity exit code: 1 when any row degraded, else 0."""
        return 1 if self.failures else 0


def run_generate(
    circuit: str,
    driver: str | None = None,
    length: int = 200,
    time_limit: float | None = 30.0,
    seed: int = 1,
    shards: int = 1,
    executor: "Executor | None" = None,
    hold: bool = False,
    tree_height: int = 2,
    progress: Callable[[int, Any], None] | None = None,
) -> GenerateOutcome:
    """Run one built-in generation campaign; returns its printable lines.

    This is the body of ``repro-eda generate`` (the CLI prints the
    returned lines verbatim) and of the service's ``generate`` jobs, so
    the two can never drift.  When an experiment database is active with
    an open run (:mod:`repro.expdb`), the run is annotated with the same
    fingerprint the CLI always recorded -- ``hold`` / ``tree_height``
    participate even though the service never sets them, precisely so
    service-submitted runs and default CLI runs share fingerprints --
    and the result lands as one ``generate/<circuit>`` row.

    ``progress`` fires once, after generation, mirroring the per-row
    callback of table campaigns (generation is a single-row campaign).
    """
    from repro import expdb
    from repro.circuits.benchmarks import get_circuit
    from repro.core.builtin_gen import BuiltinGenConfig, BuiltinGenerator
    from repro.core.embedded import compose, compose_with_buffers, estimate_swa_func
    from repro.experiments.runner import ExperimentTask
    from repro.faults.collapse import collapsed_transition_faults
    from repro.resilience.checkpoint import fingerprint_of

    target = get_circuit(circuit)
    faults = collapsed_transition_faults(target)
    config = BuiltinGenConfig(
        segment_length=length,
        time_limit=time_limit,
        rng_seed=seed,
        grade_shards=shards,
    )
    lines: list[str] = []
    swa_func = None
    if driver:
        if driver == "buffers":
            design = compose_with_buffers(target)
        else:
            design = compose(get_circuit(driver), target)
        swa_func = estimate_swa_func(design, n_sequences=16, length=120).swa_func
        lines.append(f"SWA_func under {driver}: {swa_func:.2f}%")
    result = BuiltinGenerator(
        target, faults, swa_func, config=config, grading_executor=executor
    ).run()
    db = expdb.active()
    run_id = expdb.current_run()
    if db is not None and run_id is not None:
        db.annotate_run(
            run_id,
            fingerprint=fingerprint_of(
                {
                    "generate": circuit,
                    "driver": driver,
                    "length": length,
                    "time_limit": time_limit,
                    "seed": seed,
                    "hold": bool(hold),
                    "tree_height": tree_height,
                }
            ),
        )
        db.record_row(
            run_id,
            f"generate/{circuit}",
            0,
            {
                "circuit": circuit,
                "driver": driver,
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
    lines.append(
        f"Nmulti={result.n_multi} Nsegmax={result.n_seg_max} Lmax={result.l_max} "
        f"Nseeds={result.n_seeds} Ntests={result.n_tests}"
    )
    lines.append(f"peak SWA {result.peak_swa:.2f}%  FC {result.coverage:.2f}%")
    lines.append(
        f"hardware {result.area.total:.0f} um^2 "
        f"({result.area.overhead_percent:.2f}% overhead)"
    )
    if progress is not None:
        progress(0, ExperimentTask(key=f"generate/{circuit}", fn=run_generate))
    return GenerateOutcome(
        lines=lines, result=result, faults=faults, swa_func=swa_func
    )


def run_campaign(
    spec: "CampaignSpec",
    executor: "Executor | None" = None,
    progress: Callable[[int, Any], None] | None = None,
) -> CampaignOutcome:
    """Run a validated campaign spec; returns the CLI-identical text.

    ``executor`` is any execution-plane backend (``None`` runs inline,
    exactly like the CLI without ``--executor``); the backend never
    changes a byte of the result.  ``progress(index, task)`` fires per
    completed row in row order.
    """
    if spec.kind == "generate":
        p = spec.params
        outcome = run_generate(
            p["circuit"],
            driver=p["driver"],
            length=p["length"],
            time_limit=p["time_limit"],
            seed=p["seed"],
            executor=executor,
            progress=progress,
        )
        return CampaignOutcome(text="\n".join(outcome.lines) + "\n")
    return _run_table(spec, executor, progress)


def _run_table(
    spec: "CampaignSpec",
    executor: "Executor | None",
    progress: Callable[[int, Any], None] | None,
) -> CampaignOutcome:
    """Table 4.3 / 4.4 over the executor seam, rendered like the CLI."""
    from repro.core.builtin_gen import BuiltinGenConfig
    from repro.experiments.tables4 import (
        render_table_4_3,
        render_table_4_4,
        run_table_4_3,
        run_table_4_4,
    )

    p = spec.params
    config = BuiltinGenConfig(
        segment_length=p["segment_length"],
        time_limit=p["time_limit"],
        rng_seed=p["seed"],
        q_limit=p["q_limit"],
        r_limit=p["r_limit"],
        max_sequences=p["max_sequences"],
    )
    base = run_table_4_3(
        targets=p["targets"],
        drivers=p["drivers"],
        config=config,
        n_sequences=p["n_sequences"],
        func_length=p["func_length"],
        progress=progress,
        executor=executor,
    )
    if spec.label == "4.3":
        failures = [c for c in base if isinstance(c, TaskFailure)]
        return CampaignOutcome(
            text=render_table_4_3(base) + "\n", failures=failures
        )
    offset = len(p["targets"])

    def held_progress(index: int, task: Any) -> None:
        """Continue the row numbering into the state-holding phase."""
        if progress is not None:
            progress(offset + index, task)

    held = run_table_4_4(
        base,
        fc_threshold=95.0,
        tree_height=2,
        config=config,
        progress=held_progress,
        executor=executor,
    )
    failures = [
        c for c in list(base) + list(held) if isinstance(c, TaskFailure)
    ]
    return CampaignOutcome(
        text=render_table_4_4(held) + "\n", failures=failures
    )
