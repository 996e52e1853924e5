"""Tests for the Chapter 2 TPDF pipeline, incl. exhaustive ground truth."""

import itertools
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path as FilePath

import pytest

from repro.atpg.tpdf import (
    ABORTED,
    DETECTED,
    SUB_BRANCH_BOUND,
    SUB_FSIM,
    SUB_HEURISTIC,
    SUB_PREPROCESS,
    TpdfPipeline,
    UNDETECTABLE,
    cube_detects,
)
from repro.circuits.benchmarks import get_circuit
from repro.faults.lists import tpdf_list_all_paths
from repro.faults.models import FALL, Path, RISE, TransitionPathDelayFault
from repro.faults.pdfsim import tpdf_detection_words
from repro.logic.simulator import make_broadside_test


@pytest.fixture(scope="module")
def s27_report():
    c = get_circuit("s27")
    pipeline = TpdfPipeline(c)
    return c, pipeline.run(tpdf_list_all_paths(c))


@pytest.fixture(scope="module")
def s27_exhaustive_words():
    c = get_circuit("s27")
    tests = [
        make_broadside_test(c, s1, v1, v2)
        for s1 in itertools.product((0, 1), repeat=3)
        for v1 in itertools.product((0, 1), repeat=4)
        for v2 in itertools.product((0, 1), repeat=4)
    ]
    faults = tpdf_list_all_paths(c)
    return tpdf_detection_words(c, faults, tests)


class TestS27GroundTruth:
    def test_no_aborts(self, s27_report):
        _, report = s27_report
        assert report.count(ABORTED) == 0

    def test_classification_matches_exhaustive(
        self, s27_report, s27_exhaustive_words
    ):
        """Every fault's detected/undetectable verdict equals brute force."""
        _, report = s27_report
        for fault, outcome in report.outcomes.items():
            truth = bool(s27_exhaustive_words[fault])
            assert (outcome.status == DETECTED) == truth, fault

    def test_detection_certificates_valid(self, s27_report):
        c, report = s27_report
        for fault, outcome in report.outcomes.items():
            if outcome.status == DETECTED and outcome.test is not None:
                words = tpdf_detection_words(c, [fault], [outcome.test])
                assert words[fault], fault

    def test_subprocedure_accounting(self, s27_report):
        _, report = s27_report
        total_detected = report.count(DETECTED)
        by_sub = (
            report.detected_by(SUB_FSIM)
            + report.detected_by(SUB_HEURISTIC)
            + report.detected_by(SUB_BRANCH_BOUND)
        )
        assert by_sub == total_detected
        assert report.prep_upper_bound >= total_detected

    def test_times_recorded(self, s27_report):
        _, report = s27_report
        assert set(report.sub_times) == {
            SUB_PREPROCESS,
            SUB_FSIM,
            SUB_HEURISTIC,
            SUB_BRANCH_BOUND,
        }
        assert report.total_time > 0


class TestFig21:
    def test_preprocessing_proves_fig_2_1_undetectable(self):
        from repro.experiments.figures import fig_2_1_circuit

        c = fig_2_1_circuit()
        fault = TransitionPathDelayFault(Path(lines=("c", "d", "e")), RISE)
        pipeline = TpdfPipeline(c)
        report = pipeline.run([fault])
        outcome = report.outcomes[fault]
        assert outcome.status == UNDETECTABLE
        assert outcome.sub_procedure == SUB_PREPROCESS


class TestCubeDetects:
    def test_partial_cube_conservative(self):
        from repro.atpg.broadside import BroadsideAtpg
        from repro.faults.models import TransitionFault

        c = get_circuit("s27")
        atpg = BroadsideAtpg(c)
        fault = TransitionFault("G14", RISE)
        # Empty cube: everything X, cannot prove detection.
        assert not cube_detects(atpg, {}, fault)
        run = atpg.generate(fault)
        assert cube_detects(atpg, run.assignments, fault)

    def test_full_cube_exact(self):
        """On fully specified cubes, cube_detects == fault simulation."""
        import random

        from repro.atpg.broadside import BroadsideAtpg
        from repro.faults.fsim import TransitionFaultSimulator
        from repro.faults.lists import all_transition_faults

        c = get_circuit("s27")
        atpg = BroadsideAtpg(c)
        sim = TransitionFaultSimulator(c)
        rng = random.Random(5)
        for _ in range(10):
            cube = {line: rng.randint(0, 1) for line in atpg.model.free_inputs}
            test = atpg.model.to_broadside_test(cube)
            for fault in rng.sample(all_transition_faults(c), 8):
                assert cube_detects(atpg, cube, fault) == sim.detects(test, fault)


#: An s298 TPDF on which only a clock ended the heuristic's loop: a
#: primary whose later secondary fails is never marked used.
LONG_S298_TPDF = ("pi0-n1-n19-n24-n31-n49-n63-n70-n88-n97-n105-n114", FALL)

#: s298 TPDFs that the heuristic (or, in this batch, fault simulation)
#: detects; run after LONG_S298_TPDF, their tests depend on how many
#: random draws its heuristic made.
DETECTED_S298_TPDFS = (
    ("pi0-n1-n16-n57-n69-n76", RISE),
    ("pi0-n1-n16-n57-n69-n76", FALL),
    ("pi0-n1-n16-n57-n69-n76-n82", FALL),
    ("pi0-n1-n19-n24-n31-n44-n55-n64-n72-n86-n95-n104-n110", FALL),
    ("pi0-n1-n19-n24-n31-n49-n50-n61-n79-n83-n95-n104-n110", RISE),
    ("pi0-n1-n19-n24-n31-n49-n63-n70-n108-n115", FALL),
)


def _tpdf(lines: str, direction: str) -> TransitionPathDelayFault:
    return TransitionPathDelayFault(Path(lines=tuple(lines.split("-"))), direction)


class TestWorkBounds:
    """Work bounds, not the clock, end every search and decide every outcome."""

    def test_heuristic_ends_with_the_clock_frozen(self):
        src = FilePath(__file__).resolve().parent.parent / "src"
        code = textwrap.dedent(
            f"""
            import time
            time.perf_counter = lambda: 0.0
            from repro.atpg.tpdf import TpdfPipeline
            from repro.circuits.benchmarks import get_circuit
            from repro.faults.models import Path, TransitionPathDelayFault

            lines, direction = {LONG_S298_TPDF!r}
            fault = TransitionPathDelayFault(Path(lines=tuple(lines.split("-"))), direction)
            outcome = TpdfPipeline(get_circuit("s298")).run([fault]).outcomes[fault]
            print(outcome.status, outcome.sub_procedure)
            """
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH")))
        )}
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=60, env=env,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.split() == [ABORTED, SUB_BRANCH_BOUND]

    def test_outcomes_do_not_depend_on_the_clock(self, monkeypatch):
        c = get_circuit("s298")
        faults = [_tpdf(*LONG_S298_TPDF)] + [_tpdf(*f) for f in DETECTED_S298_TPDFS]

        def outcomes():
            report = TpdfPipeline(c).run(faults)
            return {
                f: (o.status, o.sub_procedure, o.test)
                for f, o in report.outcomes.items()
            }

        real_clock = outcomes()
        real = time.perf_counter
        zero = real()
        monkeypatch.setattr(time, "perf_counter", lambda: zero + 10 * (real() - zero))
        assert outcomes() == real_clock
        assert real_clock[faults[1]][:2] == (DETECTED, SUB_HEURISTIC)
