"""The traced benchmark still runs against this package.

The tracer hooks names in the package from outside it, so a hook whose name
is gone fails only a traced run; these smoke runs catch that here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["tester-sweep", "budget-sweep", "exact-oracles"])
def test_traced_smoke_run_passes(workload):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", "1", "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
