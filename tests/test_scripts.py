"""The experiment scripts run end to end at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_comparison.py", ["--seeds", "1", "--rounds", "2"]),
        ("noise_sweep.py", ["--values", "0", "0.05", "--seeds", "1", "--rounds", "2"]),
        ("variance_study.py", ["--trials", "20"]),
    ],
)
def test_script_exits_0(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
