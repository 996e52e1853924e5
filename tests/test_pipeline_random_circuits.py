"""Randomized cross-validation: the TPDF pipeline vs exhaustive enumeration.

For seeded mini circuits (few enough free inputs to enumerate every
broadside test), the complete pipeline's detected/undetectable verdicts
must match brute force exactly, and undetectable claims must never have a
counterexample.  This is the strongest soundness/completeness check in
the suite: it exercises PODEM, the implication engine, the preprocessing
conflicts, the heuristic, and branch-and-bound together on circuits none
of them were tuned on.
"""

import itertools

import pytest

from repro.atpg.tpdf import ABORTED, DETECTED, TpdfPipeline
from repro.circuits.generator import GeneratorSpec, generate
from repro.faults.lists import tpdf_list_all_paths
from repro.faults.pdfsim import tpdf_detection_words
from repro.logic.simulator import make_broadside_test


def _exhaustive_words(circuit, faults):
    tests = [
        make_broadside_test(circuit, s1, v1, v2)
        for s1 in itertools.product((0, 1), repeat=len(circuit.flops))
        for v1 in itertools.product((0, 1), repeat=len(circuit.inputs))
        for v2 in itertools.product((0, 1), repeat=len(circuit.inputs))
    ]
    return tpdf_detection_words(circuit, faults, tests)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_pipeline_matches_exhaustive_on_random_minis(seed):
    spec = GeneratorSpec(
        name=f"mini{seed}",
        n_inputs=3,
        n_outputs=2,
        n_flops=3,
        n_gates=22,
        seed=seed,
    )
    circuit = generate(spec)
    faults = tpdf_list_all_paths(circuit, max_paths=400)
    pipeline = TpdfPipeline(circuit)
    report = pipeline.run(faults)
    words = _exhaustive_words(circuit, faults)
    for fault, outcome in report.outcomes.items():
        truth = bool(words[fault])
        if outcome.status == ABORTED:
            continue  # aborts are allowed, misclassifications are not
        assert (outcome.status == DETECTED) == truth, (seed, fault)


@pytest.mark.parametrize("seed", [5, 6])
def test_certificates_on_random_minis(seed):
    """Every detection certificate replays under fault simulation."""
    spec = GeneratorSpec(
        name=f"minicert{seed}",
        n_inputs=4,
        n_outputs=2,
        n_flops=2,
        n_gates=26,
        seed=seed,
    )
    circuit = generate(spec)
    faults = tpdf_list_all_paths(circuit, max_paths=600)
    pipeline = TpdfPipeline(circuit)
    report = pipeline.run(faults)
    detected = 0
    for fault, outcome in report.outcomes.items():
        if outcome.status == DETECTED and outcome.test is not None:
            assert tpdf_detection_words(circuit, [fault], [outcome.test])[fault]
            detected += 1
    assert detected > 0
