"""Fast tests of the benchmark itself, at the tiny scale.

Run from the root of the checkout:
    python3 -m pytest -q perfbench
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import oracles, trace, worker
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_cli(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--scale", "tiny", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_list_matches_the_benchmark_file():
    from perfbench import run
    assert sorted(NAMES) == sorted(WORKLOADS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace_flag,section", [(0, "end_to_end"),
                                                (1, "per_layer")])
@pytest.mark.parametrize("name", NAMES)
def test_every_named_metric_is_emitted_with_its_unit(name, trace_flag,
                                                     section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for seed in (1, 2):
        result = run_cli("--workload", name, "--seed", str(seed),
                         "--seconds", "1", "--trace", str(trace_flag))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == expected
        for value in result["metrics"].values():
            assert isinstance(value["value"], (int, float))


def fail_ratio(name: str) -> float:
    work = WORKLOADS[name](1, "tiny")
    result = worker.run_passes(work, passes=1)
    return result["failed"] / result["items"]


@pytest.mark.parametrize("name", NAMES)
def test_seed_code_passes_every_check(name):
    assert fail_ratio(name) == 0


@pytest.mark.parametrize("name,table,index", [
    ("iso-classify", "A000112", 4),
    ("iso-classify", "MF_BY_RANK", 2),
    ("iso-classify", "MF_BY_ELEMENTS", 3),
    ("large-inputs", "FIBONACCI", 5),
])
def test_wrong_expected_value_is_counted_as_failure(monkeypatch, name, table,
                                                    index):
    wrong = list(getattr(oracles, table))
    wrong[index] += 1
    monkeypatch.setattr(oracles, table, wrong)
    assert fail_ratio(name) > 0


def test_wrong_kernel_result_is_counted_as_failure(monkeypatch):
    from salient import _kernels
    real = _kernels.zeta_vector
    monkeypatch.setattr(_kernels, "zeta_vector",
                        lambda vec, nbits: [v + 1 for v in real(vec, nbits)])
    assert fail_ratio("flag-sweep") > 0


def test_salient_error_fails_the_item_and_the_run_goes_on(monkeypatch):
    from salient import posets
    from salient.errors import GuardExceeded
    real = posets.all_posets_up_to_iso

    def guarded(n, *args, **kwargs):
        if n == 3:
            raise GuardExceeded("injected")
        return real(n, *args, **kwargs)

    monkeypatch.setattr(posets, "all_posets_up_to_iso", guarded)
    work = WORKLOADS["iso-classify"](1, "tiny")
    result = worker.run_passes(work, passes=1)
    assert result["failed"] == 1
    assert result["items"] > 100


def test_checks_survive_python_dash_o():
    code = ("from perfbench import oracles, worker\n"
            "from perfbench.workloads import WORKLOADS\n"
            "oracles.A000112 = [0] * 8\n"
            "r = worker.run_passes(WORKLOADS['iso-classify'](1, 'tiny'),"
            " passes=1)\n"
            "print(r['failed'])\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], cwd=ROOT,
                          env={"PYTHONPATH": f"{ROOT / 'src'}:{ROOT}"},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.strip()) > 0


def test_tracer_wraps_every_binding_and_restores_them():
    from salient import classes, words
    original = words.consecutive_moves
    assert classes.consecutive_moves is original
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert words.consecutive_moves is not original
        assert classes.consecutive_moves is words.consecutive_moves
        classes.class_of((1, 2, 3))
    finally:
        tracer.uninstall()
    assert words.consecutive_moves is original
    assert classes.consecutive_moves is original
    metrics = trace.layer_metrics(tracer)
    assert metrics["classes.class_of.calls"] == (1, "count")
    assert metrics["words.consecutive_moves.calls"][0] == 3
    assert metrics["classes.orbit_members"] == (3, "count")
    parents = {p for (n, p) in tracer.spans if n == "words.consecutive_moves"}
    assert parents == {"classes.class_of"}


def test_self_time_excludes_child_spans():
    from salient import classes
    tracer = trace.Tracer()
    tracer.install()
    try:
        tracer.item(0, lambda: classes.multiset_class_partition(
            classes.MultisetSpec.parse("1:2,2:2,3:1")))
    finally:
        tracer.uninstall()
    calls, total, own = tracer.spans[("classes.multiset_class_partition",
                                      trace.ITEM)]
    children = sum(agg[1] for (n, p), agg in tracer.spans.items()
                   if p == "classes.multiset_class_partition")
    assert calls == 1
    assert own == pytest.approx(total - children)
    assert 0 < own < total
