import importlib
import importlib.util
import re
from pathlib import Path

import salient
import salient.errors

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


def test_every_guard_in_the_inventory_resolves():
    # salient/errors.py lists the guards as module.NAME (and Class.method);
    # a deleted or renamed guard must not stay listed there
    named = re.findall(r"\b([A-Za-z_]\w*)\.([A-Za-z_]\w*)",
                       salient.errors.__doc__)
    assert len(named) > 20
    missing = []
    for owner, name in named:
        holder = (getattr(salient, owner) if owner[0].isupper()
                  else importlib.import_module(f"salient.{owner}"))
        if not hasattr(holder, name):
            missing.append(f"{owner}.{name}")
    assert missing == []


def test_every_guard_constant_is_in_the_inventory():
    # the reverse check: a guard constant added to one of these modules must
    # be listed in salient/errors.py too
    listed = {name for _, name in re.findall(
        r"\b([A-Za-z_]\w*)\.([A-Za-z_]\w*)", salient.errors.__doc__)}
    unlisted = []
    for module_name in ("posets", "classes", "series", "mfenum"):
        module = importlib.import_module(f"salient.{module_name}")
        for name, value in vars(module).items():
            if (name.isupper() and type(value) is int
                    and name not in listed):
                unlisted.append(f"{module_name}.{name}")
    assert unlisted == []
