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
    out = run_example("tpdf_atpg_flow.py", "s27", "60")
    assert "detected:" in out and "undetectable:" in out


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
