import importlib
import importlib.util
from pathlib import Path

import salient

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def test_every_public_name_resolves():
    missing = [name for name in salient.__all__ if not hasattr(salient, name)]
    assert missing == []


def test_every_traced_target_resolves():
    # the benchmark's tracer wraps these by name; a deleted one fails there
    # with a KeyError, outside the test suite
    spec = importlib.util.spec_from_file_location("_bench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    assert trace.TARGETS
    for module_name, attr in trace.TARGETS:
        holder = importlib.import_module(module_name)
        owner, _, leaf = attr.rpartition(".")
        if owner:
            holder = getattr(holder, owner)
        assert callable(holder.__dict__.get(leaf)), (module_name, attr)
