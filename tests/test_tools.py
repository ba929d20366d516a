"""The measuring tools under ``tests/`` still run and print their documented lines.

``memory_stages.py`` and ``residual_baseline.py`` are the commands behind the
memory and residual figures quoted for a change; each runs here on its
smallest input.  Their figures are not pinned: the residual hash depends on
the BLAS thread count, which this suite does not fix.
"""

import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run_tool(*args) -> list[str]:
    done = subprocess.run([sys.executable, str(HERE / args[0]), *args[1:]],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_memory_stages_prints_each_stage_and_the_pass_peak():
    lines = _run_tool("memory_stages.py", "--seeds", "4")
    stage = re.compile(r"seed=4 (\S+) +current= *\d+\.\d stage_peak= *\d+\.\d$")
    matches = [stage.fullmatch(line) for line in lines[:-1]]
    assert all(matches), lines
    assert [m.group(1) for m in matches] == [
        "category", "mat_equivalence", "conjugate", "phi", "psi", "phi.verify_natural",
        "phi.unitary_report", "psi.verify_natural", "psi.unitary_report"]
    assert re.fullmatch(r"seed=4 pass +peak= *\d+\.\d", lines[-1])


def test_residual_baseline_prints_one_hash_line_per_seed():
    lines = _run_tool("residual_baseline.py", "--workload", "structure", "--seeds", "3")
    assert len(lines) == 1
    assert re.fullmatch(r"structure seed=3 checks=\d+ sha256=[0-9a-f]{64} "
                        r"margin_digits=-?\d+\.\d{4}", lines[0])
