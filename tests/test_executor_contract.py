"""Executor conformance suite: every backend honors the same contract.

Parametrized over both :mod:`repro.exec` backends -- ``inprocess`` and
``pool`` -- these tests pin the contract that makes ``--jobs`` and
``--shards`` pure wall-clock knobs:

* ``drain()`` returns results in submission order no matter which order
  tasks finish in;
* injected worker crashes are retried and the recovered campaign is
  byte-identical to a clean run;
* exhausted retries degrade to typed :class:`TaskFailure` rows instead
  of raising;
* Table 4.3 renders byte-identically on every backend, and sharded
  fault grading through an injected executor matches serial grading;
* dispatch metrics land in the ``executor.*`` namespace and surface in
  the ``--stats`` report's "execution plane" section.
"""

import contextlib
import time

import pytest

from repro import obs
from repro.circuits.benchmarks import get_circuit
from repro.core.builtin_gen import BuiltinGenConfig
from repro.exec import (
    InProcessExecutor,
    LocalPoolExecutor,
    validate_jobs,
    validate_shards,
)
from repro.experiments.runner import ExperimentTask, run_tasks
from repro.experiments.tables4 import render_table_4_3, run_table_4_3
from repro.faults.collapse import collapsed_transition_faults
from repro.faults.fsim import FaultGrader
from repro.logic.simulator import make_broadside_test
from repro.resilience import faultpoints
from repro.resilience.deadline import clear_task_deadline
from repro.resilience.policy import RetryPolicy, TaskFailure

#: The local backends, in reference-first order.
EXECUTOR_KINDS = ("inprocess", "pool")

#: A fast backoff so retry-heavy tests stay quick.
FAST = RetryPolicy(backoff_base_s=0.01, backoff_cap_s=0.05)

TINY_43 = dict(
    targets=("s27", "s298"),
    drivers=("s953",),
    config=BuiltinGenConfig(
        segment_length=40, time_limit=None, rng_seed=2,
        q_limit=1, r_limit=2, max_sequences=2,
    ),
    n_sequences=2,
    func_length=30,
)


@pytest.fixture(autouse=True)
def _clean_state():
    faultpoints.install(None)
    clear_task_deadline()
    obs.disable()
    obs.reset()
    yield
    faultpoints.install(None)
    clear_task_deadline()
    obs.disable()
    obs.reset()


def _square(x):
    return x * x


def _sleepy(i, delay):
    time.sleep(delay)
    return i


def _tasks(count=4, timeout_s=None, max_retries=None):
    return [
        ExperimentTask(
            key=f"sq/{i}",
            fn=_square,
            kwargs={"x": i},
            timeout_s=timeout_s,
            max_retries=max_retries,
        )
        for i in range(count)
    ]


@contextlib.contextmanager
def executor_for(kind, policy=None, workers=2, collect=None):
    """Context-managed executor of ``kind``."""
    if kind == "inprocess":
        ex = InProcessExecutor(policy=policy)
    else:
        ex = LocalPoolExecutor(n_workers=workers, policy=policy, collect=collect)
    try:
        yield ex
    finally:
        ex.close()


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_jobs_guard_names_value(self, bad):
        with pytest.raises(ValueError, match=f"got {bad}"):
            validate_jobs(bad)

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_shards_guard_names_value(self, bad):
        with pytest.raises(ValueError, match=f"got {bad}"):
            validate_shards(bad)

    def test_none_passes_both_guards(self):
        assert validate_jobs(None) is None
        assert validate_shards(None) is None
        assert validate_jobs(3) == 3
        assert validate_shards(3) == 3


class TestOrdering:
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_results_in_submission_order(self, kind):
        # The first task is the slowest: with 2 workers it finishes
        # last, so completion order inverts submission order.
        delays = (0.3, 0.0, 0.05, 0.0)
        tasks = [
            ExperimentTask(key=f"slp/{i}", fn=_sleepy, kwargs={"i": i, "delay": d})
            for i, d in enumerate(delays)
        ]
        completion_slots = []

        def on_complete(slot, outcome, snapshot):
            completion_slots.append(slot)

        with executor_for(kind, policy=FAST) as ex:
            futures = [ex.submit(t) for t in tasks]
            assert not any(f.done() for f in futures)
            results = ex.drain(on_complete)
        assert results == [0, 1, 2, 3]
        assert [f.result() for f in futures] == [0, 1, 2, 3]
        assert sorted(completion_slots) == [0, 1, 2, 3]
        if kind != "inprocess":
            assert completion_slots != [0, 1, 2, 3]


class TestRetryAfterCrash:
    @pytest.mark.parametrize("kind", ["pool"])
    def test_crash_once_recovers_identically(self, kind):
        clean = run_tasks(_tasks(), jobs=1, policy=FAST)
        faultpoints.install("runner.task:sq/1:crash_once")
        obs.enable()
        with executor_for(kind, policy=FAST) as ex:
            injected = run_tasks(_tasks(), executor=ex)
        assert injected == clean == [0, 1, 4, 9]
        counters = obs.registry().counters
        assert counters["runner.worker_crashes"] == 1
        assert counters["runner.retries"] == 1
        assert counters["runner.tasks_completed"] == 4

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_flaky_error_retries_everywhere(self, kind):
        faultpoints.install("runner.task:sq/3:flaky2")
        obs.enable()
        with executor_for(kind, policy=FAST) as ex:
            out = run_tasks(_tasks(max_retries=2), executor=ex)
        assert out == [0, 1, 4, 9]
        assert obs.registry().counters["runner.retries"] == 2


class TestDegradation:
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_exhausted_retries_degrade_to_typed_failure(self, kind):
        faultpoints.install("runner.task:sq/1:error")
        obs.enable()
        with executor_for(kind, policy=FAST) as ex:
            out = run_tasks(_tasks(max_retries=1), executor=ex)
        assert out[0] == 0 and out[2] == 4 and out[3] == 9
        failure = out[1]
        assert isinstance(failure, TaskFailure)
        assert failure.key == "sq/1"
        assert failure.kind == "error"
        assert failure.attempts == 2
        assert obs.registry().counters["runner.task_failures"] == 1


@pytest.fixture(scope="module")
def table_43_reference():
    """The serial (jobs=1, no executor) rendering every backend must match."""
    return render_table_4_3(run_table_4_3(jobs=1, **TINY_43))


class TestByteIdentity:
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_table_43_identical(self, kind, table_43_reference):
        with executor_for(kind, policy=FAST) as ex:
            rendered = render_table_4_3(run_table_4_3(executor=ex, **TINY_43))
        assert rendered == table_43_reference

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_sharded_grading_identical(self, kind):
        import random

        circuit = get_circuit("s298")
        faults = collapsed_transition_faults(circuit)
        rng = random.Random(7)
        tests = [
            make_broadside_test(
                circuit,
                [rng.randint(0, 1) for _ in circuit.flops],
                [rng.randint(0, 1) for _ in circuit.inputs],
                [rng.randint(0, 1) for _ in circuit.inputs],
            )
            for _ in range(24)
        ]
        serial = FaultGrader(circuit, faults).preview(tests)
        with executor_for(kind, policy=FAST) as ex:
            with FaultGrader(circuit, faults, shards=2, executor=ex) as grader:
                assert grader.preview(tests) == serial
                assert grader._pool is None  # injected executor, not owned


class TestObservability:
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_dispatch_metrics_and_report_section(self, kind):
        obs.enable()
        with executor_for(kind, policy=FAST) as ex:
            out = run_tasks(_tasks(), executor=ex)
        assert out == [0, 1, 4, 9]
        snap = obs.registry().snapshot()
        assert snap["counters"]["executor.submitted"] == 4
        hist = snap["histograms"][f"executor.{kind}.dispatch_ms"]
        assert hist["count"] == 4
        report = obs.render_report(obs.registry())
        assert "execution plane" in report
        assert "submitted" in report


class TestCrossBackendResume:
    def test_checkpoint_written_by_pool_resumes_inprocess(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        with executor_for("pool", policy=FAST) as ex:
            first = run_table_4_3(
                checkpoint_path=str(journal), executor=ex, **TINY_43
            )
        obs.enable()
        with executor_for("inprocess", policy=FAST) as ex:
            resumed = run_table_4_3(
                checkpoint_path=str(journal), resume=True, executor=ex, **TINY_43
            )
        assert render_table_4_3(resumed) == render_table_4_3(first)
        counters = obs.registry().counters
        # One checkpointed task per target; every one replays from the
        # journal, so the resumed run dispatches nothing.
        assert counters["runner.tasks_resumed"] == len(TINY_43["targets"])
        assert "runner.tasks_completed" not in counters

    def test_torn_journal_resumes_on_other_backend(self, tmp_path):
        """Tear the journal mid-campaign; finish elsewhere, byte-identical.

        A pooled campaign journals its rows; a crash mid-write is
        simulated by tearing the journal down to the header, one
        complete row, and a half-written second row (the write the
        crash interrupted).  ``--resume`` on a *different* backend must
        replay the intact row, discard the torn line, recompute the
        rest, and render byte-identically.
        """
        journal = tmp_path / "campaign.jsonl"
        with executor_for("pool", policy=FAST) as ex:
            first = run_table_4_3(
                checkpoint_path=str(journal), executor=ex, **TINY_43
            )
        lines = journal.read_text().splitlines()
        assert len(lines) == 1 + len(TINY_43["targets"])  # header + rows
        torn = "\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2]
        journal.write_text(torn)
        obs.enable()
        with executor_for("inprocess", policy=FAST) as ex:
            resumed = run_table_4_3(
                checkpoint_path=str(journal), resume=True, executor=ex, **TINY_43
            )
        assert render_table_4_3(resumed) == render_table_4_3(first)
        counters = obs.registry().counters
        assert counters["runner.tasks_resumed"] == 1  # the intact row
        assert counters["runner.tasks_completed"] == 1  # the recomputed row
