"""The benchmark's own checks, run once on a tiny budget.

``perfbench/run.py --trace 1`` checks every output against numpy, checks
that traced passes count the same calls, and checks that each layer a
workload is meant to stress is called at all.  Running it here makes a
kernel return type or a layer the route stops calling fail the test suite
rather than only a traced benchmark run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["fuzz", "spectral", "cli"])
def test_traced_workload_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] is True, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert result["failed"] == 0
