"""The benchmark's tracer wraps library functions by name; a rename must not
break ``bench/run.py --trace 1`` unnoticed."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    missing = [
        f"{module}.{name}"
        for module, name, _ in tracer.TRACED
        if not callable(getattr(importlib.import_module(f"grodeg.{module}"), name, None))
    ]
    assert missing == []
