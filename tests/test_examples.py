"""Smoke tests: every example script runs end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py", "s27")
    assert "transition fault coverage" in out


def test_tpdf_atpg_flow():
    """Two runs print the same bytes apart from the trailing run-time line."""
    outs = [run_example("tpdf_atpg_flow.py", "s27", "60") for _ in range(2)]
    assert "detected:" in outs[0] and "undetectable:" in outs[0]
    stable = []
    for out in outs:
        *body, last = out.splitlines()
        assert last.startswith("run time: "), last
        stable.append(body)
    assert stable[0] == stable[1]


def test_path_selection_flow():
    out = run_example("path_selection_flow.py", "s298", "3")
    assert "Target_PDF" in out


def test_scan_and_onchip_application():
    out = run_example("scan_and_onchip_application.py", "s27")
    assert "MISR signature" in out
    assert "MISMATCH detected" in out


@pytest.mark.slow
def test_embedded_block_bist():
    out = run_example("embedded_block_bist.py", "s298", "s953")
    assert "final coverage" in out
