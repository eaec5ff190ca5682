"""Names that other code reaches as strings. The benchmark's tracer wraps
library functions by name, so a rename must not break ``bench/run.py --trace
1`` unnoticed; and ``grodeg.__all__`` must not keep a deleted name."""

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


def test_every_public_name_resolves_once():
    import grodeg

    missing = [name for name in grodeg.__all__ if not hasattr(grodeg, name)]
    assert missing == []
    assert len(set(grodeg.__all__)) == len(grodeg.__all__)
