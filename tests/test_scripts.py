"""Smoke tests: the study scripts under scripts/ run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["scripts/cycle_sharpness.py", "--max-n", "3"],
    ["scripts/run_corpus_verify.py", "--count", "3"],
    ["scripts/curvature_scale.py", "--vertices", "60"],
])
def test_script_exits_zero(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
