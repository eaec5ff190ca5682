"""Every benchmark workload runs end to end, traced, and checks its own outputs.

The runs are short (``--seconds 0``: one warm-up and one timed pass of each
kind) and start together, so the suite waits about as long as the longest.
The benchmark's files are only read: no bytecode is written next to them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("lift_valid", "lift_invalid", "scan_minors", "complex_zoo")


@pytest.fixture(scope="module")
def runs():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    procs = {
        workload: subprocess.Popen(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "0", "--trace", "1"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for workload in WORKLOADS
    }
    yield procs
    for proc in procs.values():
        if proc.poll() is None:
            proc.kill()
        proc.communicate()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correct(runs, workload):
    out, err = runs[workload].communicate(timeout=600)
    assert runs[workload].returncode == 0, err
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, err
    assert result["attempted"] > 0
