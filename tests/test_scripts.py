"""The scripts under scripts/ run end to end against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("args", [[], ["2,[3,4],6,7,8"]], ids=["default", "given"])
def test_raft_walkthrough(args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "raft_walkthrough.py"), *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "recovers the input: True" in proc.stdout
