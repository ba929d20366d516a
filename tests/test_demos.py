"""Every demo script runs to completion."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(script)], capture_output=True,
                            text=True, env=env, cwd=ROOT, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
