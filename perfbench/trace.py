"""Span recorders wrapped around salient's public functions.

Tracing is installed from the benchmark's files, not from salient: each
traced function is replaced, in every salient module namespace that binds
it, by a wrapper that times the call. Spans nest on a stack; the benchmark
opens one "item" span per verified item, so every library span has the item
(or another library span) as its parent. Hot functions are aggregated per
(span, parent) pair in memory rather than recorded one by one, and counts are
taken from return values at the same boundary. A span's self time is its
duration minus the time covered by its child spans.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

# (module, attribute path) of every traced function. The span name drops the
# "salient." prefix and a leading underscore (metric names start with a
# letter), e.g. "posets.GradedPoset.flag_alpha_vector", "kernels.zeta_vector".
TARGETS = (
    ("salient._kernels", "natural_flag_vectors"),
    ("salient._kernels", "descent_vector"),
    ("salient._kernels", "zeta_vector"),
    ("salient.posets", "canonical_relation_key"),
    ("salient.posets", "all_posets_up_to_iso"),
    ("salient.posets", "GradedPoset.flag_alpha_vector"),
    ("salient.posets", "NaturalPoset.extension_count"),
    ("salient.mfenum", "generate_mf_posets"),
    ("salient.series", "cf_series"),
    ("salient.series", "f4_coefficient"),
    ("salient.series", "g_umbral_series"),
    ("salient.series", "TruncatedSeries.inverse"),
    ("salient.classes", "class_of"),
    ("salient.classes", "multiset_class_partition"),
    ("salient.classes", "class_size"),
    ("salient.words", "consecutive_moves"),
    ("salient.words", "check_word"),
)

KERNEL_SPANS = tuple(f"kernels.{attr}" for mod, attr in TARGETS
                     if mod == "salient._kernels")
ITEM = "item"
KEY_SPAN = "posets.canonical_relation_key"


def span_name(module: str, attr: str) -> str:
    return module.split(".", 1)[1].lstrip("_") + "." + attr


class Tracer:
    """In-memory span aggregates, per-item records and counts."""

    def __init__(self):
        self._stack: list[list] = []        # [name, child seconds]
        self.spans: dict[tuple[str, str], list] = {}  # -> [calls, total, self]
        self.counts: Counter = Counter()
        self.items: list[tuple[int, float, float]] = []  # id, total, self
        self.iso_by_n: dict[int, tuple[int, int]] = {}   # n -> keys, classes
        self._undo: list[tuple[object, str, object]] = []

    # -- spans

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, seconds: float, calls: int) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += seconds
        key = (frame[0], parent[0] if parent is not None else "")
        agg = self.spans.get(key)
        if agg is None:
            agg = self.spans[key] = [0, 0.0, 0.0]
        agg[0] += calls
        agg[1] += seconds
        agg[2] += seconds - frame[1]

    def item(self, item_id: int, step):
        """Run step() inside an item span recorded under item_id. The step
        that ends a task without yielding an item is recorded under the id
        the next item will get."""
        frame = self._enter(ITEM)
        start = time.perf_counter()
        try:
            return step()
        finally:
            seconds = time.perf_counter() - start
            self._exit(frame, seconds, 1)
            self.items.append((item_id, seconds, seconds - frame[1]))

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(agg[0] for (n, p), agg in self.spans.items()
                   if n == name and (parent is None or p == parent))

    def self_seconds(self, name: str) -> float:
        return sum(agg[2] for (n, _), agg in self.spans.items() if n == name)

    # -- installation

    def install(self) -> None:
        """Wrap every target in every salient namespace that binds it."""
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            original = holder.__dict__[leaf]
            wrapper = self._wrap(span_name(module_name, attr), original)
            if owner:
                self._rebind(holder, leaf, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "salient" or name.startswith("salient."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)

    def _rebind(self, holder, key: str, wrapper) -> None:
        self._undo.append((holder, key, holder.__dict__[key]))
        setattr(holder, key, wrapper)

    def _wrap(self, name: str, func):
        count = _COUNTERS.get(name)
        snapshot = name in _KEY_SNAPSHOT
        tracer = self
        if inspect.isgeneratorfunction(func):
            def generator_wrapper(*args, **kwargs):
                gen = func(*args, **kwargs)
                first = True
                while True:
                    frame = tracer._enter(name)
                    start = time.perf_counter()
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame, time.perf_counter() - start,
                                     1 if first else 0)
                        first = False
                    if count is not None:
                        count(tracer, args, kwargs, value)
                    yield value
            generator_wrapper.__wrapped__ = func
            return generator_wrapper

        def wrapper(*args, **kwargs):
            before = tracer.calls(KEY_SPAN) if snapshot else 0
            frame = tracer._enter(name)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(frame, time.perf_counter() - start, 1)
            if count is not None:
                count(tracer, args, kwargs, result)
            if snapshot:
                _iso_call(tracer, args, kwargs, result,
                          tracer.calls(KEY_SPAN) - before)
            return result
        wrapper.__wrapped__ = func
        return wrapper


# -- counts taken from return values

def _kernel_vectors(tracer, args, kwargs, result):
    vec = result[0] if isinstance(result, tuple) else result
    tracer.counts["kernels.subsets"] += len(vec)


def _descent(tracer, args, kwargs, result):
    _kernel_vectors(tracer, args, kwargs, result)
    tracer.counts["kernels.extensions"] += sum(result)


def _iso_call(tracer, args, kwargs, result, keys):
    n = args[0] if args else kwargs["n"]
    tracer.counts["posets.iso_classes"] += len(result)
    tracer.iso_by_n.setdefault(n, (keys, len(result)))


def _mf_emitted(tracer, args, kwargs, value):
    by = args[0] if args else kwargs.get("by", "rank")
    tracer.counts["mfenum.emitted"] += 1
    tracer.counts[f"mfenum.emitted_by_{by}"] += 1


def _series_terms(tracer, args, kwargs, result):
    tracer.counts["series.terms"] += len(result.coeffs)


def _one_term(tracer, args, kwargs, result):
    tracer.counts["series.terms"] += 1


def _list_terms(tracer, args, kwargs, result):
    tracer.counts["series.terms"] += len(result)


def _orbit(tracer, args, kwargs, result):
    tracer.counts["classes.orbit_members"] += result.size


_COUNTERS = {
    "kernels.natural_flag_vectors": _kernel_vectors,
    "kernels.descent_vector": _descent,
    "kernels.zeta_vector": _kernel_vectors,
    "mfenum.generate_mf_posets": _mf_emitted,
    "series.cf_series": _series_terms,
    "series.f4_coefficient": _one_term,
    "series.g_umbral_series": _list_terms,
    "classes.class_of": _orbit,
}
_KEY_SNAPSHOT = frozenset({"posets.all_posets_up_to_iso"})


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run, as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for module_name, attr in TARGETS:
        name = span_name(module_name, attr)
        out[f"{name}.calls"] = (tracer.calls(name), "count")
        out[f"{name}.self_s"] = (tracer.self_seconds(name), "s")
    counts = tracer.counts
    out["kernels.extensions"] = (counts["kernels.extensions"], "count")
    out["kernels.subsets"] = (counts["kernels.subsets"], "count")
    item_s = sum(total for _, total, _ in tracer.items)
    kernel_s = sum(tracer.self_seconds(name) for name in KERNEL_SPANS)
    out["kernels.item_share"] = (_ratio(kernel_s, item_s), "ratio")
    # time inside items but outside every traced span: the benchmark's
    # checks and the salient calls that are not traced
    out["item.self_s"] = (sum(own for _, _, own in tracer.items), "s")

    iso_keys = tracer.calls(KEY_SPAN, "posets.all_posets_up_to_iso")
    out["posets.iso_yield"] = (_ratio(counts["posets.iso_classes"], iso_keys),
                               "ratio")
    top = max(tracer.iso_by_n, default=None)
    keys, classes = tracer.iso_by_n[top] if top is not None else (0, 0)
    out["posets.iso_keys_max_n"] = (keys, "count")
    out["posets.iso_classes_max_n"] = (classes, "count")

    emitted = counts["mfenum.emitted"]
    mf_keys = tracer.calls(KEY_SPAN, "mfenum.generate_mf_posets")
    out["mfenum.emitted"] = (emitted, "count")
    out["mfenum.emitted_by_rank"] = (counts["mfenum.emitted_by_rank"], "count")
    out["mfenum.dup_ratio"] = (1 - _ratio(emitted, mf_keys) if mf_keys else 0.0,
                               "ratio")
    out["series.terms"] = (counts["series.terms"], "count")
    out["classes.orbit_members"] = (counts["classes.orbit_members"], "count")
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summary(tracer: Tracer) -> dict:
    """Everything recorded, in a JSON-ready form for the trace file."""
    return {
        "spans": [{"span": n, "parent": p, "calls": c, "total_s": t,
                   "self_s": s}
                  for (n, p), (c, t, s) in sorted(tracer.spans.items())],
        "counts": dict(tracer.counts),
        "iso_by_n": {str(n): {"keys": k, "classes": c}
                     for n, (k, c) in sorted(tracer.iso_by_n.items())},
        "items": [{"id": i, "total_s": t, "self_s": s}
                  for i, t, s in tracer.items],
    }
