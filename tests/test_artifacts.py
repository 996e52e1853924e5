"""The artifact registry: every entry's shape checks, and DESIGN.md's index.

Each registry entry runs here with its shipped configuration, or -- where
that takes seconds -- with the few parameters in ``REDUCED`` replaced, and
every one of its checks must pass.  EXPERIMENTS.md prints the same checks
at the shipped configurations.
"""

import re
from pathlib import Path

import pytest

from repro.experiments.artifacts import ARTIFACTS, failures

DESIGN = Path(__file__).resolve().parents[1] / "DESIGN.md"

_SMALL_GEN = {"segment_length": 40, "time_limit": None, "rng_seed": 2, "q_limit": 1,
              "r_limit": 2, "max_sequences": 2}
_S27_LONGEST = {"circuits": ("s27",), "min_detected": 5, "max_faults": 60}

#: Parameter overrides for the entries that take seconds at their shipped
#: configuration.  ``chapter4`` keeps its own: its seed-dependent
#: "FC <= buffers FC + 5" check is pinned to the shipped seed.
REDUCED = {
    **dict.fromkeys(("2.1", "2.3", "2.5"), {"circuits": ("s27",)}),
    **dict.fromkeys(("2.2", "2.4", "2.6"), _S27_LONGEST),
    **dict.fromkeys(("3.2", "3.3"), {"circuits": ("s344",), "ns": (6,)}),
    "3.4": {"n": 4, "max_faults": 3},
    "3.5": {"circuits": ("s298",), "n": 2, "max_tg": 2},
    "4.3": {"targets": ("s298",), "drivers": ("s344",), "n_sequences": 4, "func_length": 40,
            "config": {"segment_length": 60, "time_limit": 6, "rng_seed": 2}},
    "4.4": {"targets": ("s298",), "drivers": ("s953",), "config": _SMALL_GEN,
            "holding_config": _SMALL_GEN},
    "ablation-scan-styles": {"circuit": "s27"},
}


@pytest.mark.parametrize("artifact_id", list(ARTIFACTS))
def test_every_check_passes(artifact_id):
    artifact = ARTIFACTS[artifact_id]
    value = artifact.run(**REDUCED.get(artifact_id, {}))
    assert artifact.render(value).strip() and artifact.checks and not failures(value)
    assert [(name, reason) for name, reason in artifact.check(value) if reason] == []


def test_reduced_inputs_name_real_parameters():
    for artifact_id, overrides in REDUCED.items():
        params = ARTIFACTS[artifact_id].params
        assert set(overrides) <= set(params), artifact_id


def test_a_failing_check_reports_its_reason():
    artifact = ARTIFACTS["4.2"]
    rows = artifact.run()
    rows[0] = dict(rows[0], NSP=rows[0]["NPI"] + 1)
    (name, reason), = artifact.check(rows)
    assert name == "0 <= NSP <= NPI in every row"
    assert "'Circuit': 's27'" in reason


def test_design_index_names_every_registry_id_and_nothing_else():
    index = DESIGN.read_text().split("## Per-experiment index")[1].split("\n## ")[0]
    rows = "\n".join(line for line in index.splitlines() if line.startswith("| "))
    ids = re.findall(r"`repro-eda table ([^`\s]+)`", rows)
    assert sorted(set(ids)) == sorted(ARTIFACTS)
