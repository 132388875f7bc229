"""Smoke-run the example scripts so the library names they import stay valid."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["derivative_crosscheck.py", "--trials", "2", "--degree", "3"],
        ["certificate_sweep.py", "--max-degree", "3"],
        ["classify_demo.py", "--samples", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_runs(argv):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
