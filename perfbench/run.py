#!/usr/bin/env python3
"""Seeded benchmark of salient: end-to-end rates, and per-layer self times
from a separate traced run.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --report acceptance

Workloads (see workloads.py): flag-sweep, iso-classify, multiset-classes,
large-inputs. The first run in a checkout builds salient in place
(setup.py build_ext --inplace, which compiles the optional kernels when
Cython is present, then compileall); the record goes to .bench_build/.

Load model: one closed loop in one fresh single-threaded process; the next
item starts when the previous one is checked. Caches start cold and there is
no warm-up pass, as for a CLI user.

--trace 0 reports the end-to-end metrics: items_per_s (items over the
measured time, after set-up), item_p50_ms and item_p90_ms (time from one
item's completion to the next, check included), setup_s (median over eleven
fresh processes, five before and five after the measuring one, of importing
salient with its CLI layer and drawing the inputs), peak_rss_mb
(of the measuring process) and pass_ratio (1 - failed / attempted items).

--trace 1 measures for half the time untraced, then repeats the same number
of passes in a fresh process with span recorders around salient's public
functions (trace.py), and reports per-layer calls, self times and counts,
kernel-backend rates and trace.overhead_ratio (traced / untraced wall - 1).

--report acceptance times each acceptance suite once on the active backend;
it is a report, not a gated workload.

Every result is stamped with the Python version, kernel backend,
SALIENT_PURE, nproc, commit, seed and item counts. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Exit code 0 means a result was printed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ("flag-sweep", "iso-classify", "multiset-classes", "large-inputs")
SETUP_PROBES = 5     # before and again after the measuring process
BUDGET_S = 170.0     # every run must end within 180 s
BACKENDS = ("python", "c")


class BenchError(Exception):
    """No result can be produced."""


def call_worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              env=dict(os.environ, PYTHONHASHSEED="0"),
                              capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} exceeded the time budget") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ensure_built() -> None:
    """Build salient in place once per checkout."""
    marker = BUILD_DIR / "perfbench-build.json"
    if marker.exists():
        return
    if not (ROOT / "src" / "salient" / "__init__.py").exists():
        raise BenchError("no salient sources under src/")
    steps = {"compileall": [sys.executable, "-m", "compileall", "-q", "src"]}
    if (ROOT / "setup.py").exists():
        steps = {"build_ext": [sys.executable, "setup.py", "-q", "build_ext",
                               "--inplace"], **steps}
    record = {}
    for name, cmd in steps.items():
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        sys.stderr.write(proc.stdout + proc.stderr)
        record[name] = proc.returncode
    BUILD_DIR.mkdir(exist_ok=True)
    marker.write_text(json.dumps(record))


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def end_to_end(name: str, seed: int, seconds: float, scale: str,
               deadline: float) -> tuple[dict, dict]:
    common = ["--workload", name, "--seed", str(seed), "--scale", scale]

    def probes() -> list[float]:
        return [call_worker(["setup", *common], deadline)["setup_s"]
                for _ in range(SETUP_PROBES)]

    setups = probes()
    run = call_worker(["measure", *common, "--seconds", str(seconds)],
                      deadline)
    setups += [run["setup_s"], *probes()]
    items = run["items"]
    metrics = {
        "items_per_s": (items / run["elapsed_s"], "1/s"),
        "item_p50_ms": (run["p50_ms"], "ms"),
        "item_p90_ms": (run["p90_ms"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "pass_ratio": (1 - run["failed"] / items, "ratio"),
    }
    return run, metrics


def per_layer(name: str, seed: int, seconds: float, scale: str,
              deadline: float) -> tuple[dict, dict]:
    common = ["--workload", name, "--seed", str(seed), "--scale", scale]
    plain = call_worker(["measure", *common, "--seconds", str(seconds / 2),
                         "--backends"], deadline)
    trace_file = BUILD_DIR / f"trace-{name}-{seed}.json"
    traced = call_worker(["traced", *common, "--passes", str(plain["passes"]),
                          "--trace-file", str(trace_file)], deadline)
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    for backend in BACKENDS:
        rate = plain["backend_rates"].get(backend, 0.0)
        metrics[f"kernels.{backend}.items_per_s"] = (rate, "1/s")
    metrics["trace.overhead_ratio"] = (
        traced["elapsed_s"] / plain["elapsed_s"] - 1, "ratio")
    print(f"trace written to {trace_file.relative_to(ROOT)}")
    run = dict(plain)
    run["items"] += traced["items"]
    run["failed"] += traced["failed"]
    return run, metrics


def run_workload(name: str, args, deadline: float) -> dict:
    from_workload = per_layer if args.trace else end_to_end
    run, metrics = from_workload(name, args.seed, args.seconds, args.scale,
                                 deadline)
    stamp = dict(run["stamp"], commit=commit(), workload=name, seed=args.seed,
                 seconds=args.seconds, scale=args.scale, trace=args.trace,
                 items=run["items"], passes=run["passes"])
    failed, items = run["failed"], run["items"]
    print(f"workload {name}: {run['item']}")
    print("stamp " + json.dumps(stamp))
    rates = run["pass_rates"]
    print(f"{items} items in {run['passes']} passes; {failed} failed "
          f"(fail_ratio {failed / items:.6g}); items/s by pass: "
          f"min {min(rates):.5g}, median {statistics.median(rates):.5g}, "
          f"max {max(rates):.5g}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<44} {value:>14.6g} {unit}")
    return {"correct": failed == 0, "attempted": items, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def report_acceptance(deadline: float) -> dict:
    report = call_worker(["acceptance"], deadline)
    print("stamp " + json.dumps(dict(report["stamp"], commit=commit())))
    metrics, failed = {}, 0
    for name, suite in report["suites"].items():
        verdict = "PASS" if suite["ok"] else "FAIL"
        failed += not suite["ok"]
        print(f"  {'acceptance.' + name + '.s':<44} {suite['seconds']:>9.3f} s"
              f"  {verdict}  {suite['message']}")
        metrics[f"acceptance.{name}.s"] = {"value": suite["seconds"],
                                           "unit": "s"}
    return {"correct": failed == 0, "attempted": len(report["suites"]),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny: small inputs for the benchmark's tests")
    parser.add_argument("--report", choices=["acceptance"])
    args = parser.parse_args(argv)
    if args.workload is None and args.report is None:
        parser.error("give --workload or --report")

    started = time.monotonic()
    try:
        ensure_built()
        if args.report:
            result = report_acceptance(started + 1800)
        else:
            names = WORKLOADS if args.workload == "all" else [args.workload]
            budget = BUDGET_S * len(names)
            results = {name: run_workload(name, args, started + budget)
                       for name in names}
            result = results[names[0]] if len(names) == 1 else {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{name}.{k}": v for name, r in results.items()
                            for k, v in r["metrics"].items()},
            }
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
