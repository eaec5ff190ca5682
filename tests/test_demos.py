"""Each demo script runs to completion as a standalone process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import grodeg

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demo_directory_is_populated():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=[s.stem for s in DEMOS])
def test_demo_runs(script):
    src = os.path.dirname(os.path.dirname(os.path.abspath(grodeg.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert "Traceback" not in proc.stderr
