"""The scripts under scripts/ run end to end against the package in src/."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of the default run's whole stdout, taken while the package still
# computed the runs, the eligible rafts and mu that the script now computes
DEFAULT_STDOUT_SHA256 = "c30adbb2ca1a108975e517181760c8eda9d450f6bba88f8e98ef1f16bbca19ac"


@pytest.mark.parametrize("args", [[], ["2,[3,4],6,7,8"], ["1,3,5"]],
                         ids=["default", "given", "raftless"])
def test_raft_walkthrough(args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "raft_walkthrough.py"), *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "recovers the input: True" in proc.stdout
    if not args:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEFAULT_STDOUT_SHA256, \
            proc.stdout
