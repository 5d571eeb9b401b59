"""One measuring process of the benchmark; run.py starts it.

Usage (from the root of a checkout):
    python3 perfbench/worker.py setup|measure|traced|acceptance
        --workload NAME --seed N [--scale full|tiny] [--seconds S]
        [--passes P] [--backends] [--trace-file PATH]

Prints one JSON object on its last line of standard output. Every mode
starts from a fresh interpreter, so salient's caches start cold.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def use_checkout() -> None:
    """Import salient and the benchmark from this checkout."""
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def set_up(name: str, seed: int, scale: str):
    """Import salient and its CLI layer, whose cost is its import, and draw
    the workload's inputs; returns the workload and the seconds taken."""
    start = time.perf_counter()
    import salient.cli  # noqa: F401  (the import is part of set-up)
    from perfbench.workloads import WORKLOADS
    work = WORKLOADS[name](seed, scale)
    return work, time.perf_counter() - start


def run_passes(work, seconds: float = 0.0, passes: int | None = None,
               tracer=None) -> dict:
    """Closed loop over whole passes of the workload.

    Runs exactly `passes` passes when given; otherwise at least one, and
    another only while it is expected to end within `seconds`. An item's
    latency is the time from the previous item's completion to its own,
    check included. A SalientError fails the item in progress and ends its
    task; the run goes on.
    """
    from salient.errors import SalientError
    latencies: list[float] = []
    pass_rates: list[float] = []
    attempted = failed = done = 0
    start = prev = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        pass_items = attempted
        for task in work.tasks():
            gen = task()
            produced = task_failed = 0
            task_ok = True
            while True:
                try:
                    if tracer is None:
                        ok = next(gen)
                    else:
                        ok = tracer.item(attempted, gen.__next__)
                except StopIteration as stop:
                    task_ok = stop.value is True
                    break
                except SalientError:
                    ok = None
                now = time.perf_counter()
                latencies.append(now - prev)
                prev = now
                attempted += 1
                produced += 1
                task_failed += ok is not True
                if ok is None:
                    break
            if not task_ok:
                # a failed whole-task check fails every item of the task
                attempted += produced == 0
                task_failed = max(produced, 1)
            failed += task_failed
        done += 1
        now = time.perf_counter()
        pass_rates.append((attempted - pass_items) / (now - pass_start))
        if passes is not None:
            if done >= passes:
                break
        elif now - start + (now - pass_start) > seconds:
            break
    return {"items": attempted, "failed": failed, "passes": done,
            "elapsed_s": now - start, "pass_rates": pass_rates,
            "latencies": latencies}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def backend_rates(seed: int, scale: str) -> tuple[dict[str, float], int]:
    """Flag-sweep items per second on every importable kernel backend,
    calling each backend module directly; returns rates and mismatches."""
    from salient import _kernels
    from perfbench.workloads import FlagSweep
    sample = FlagSweep(seed, scale).posets[:2000]
    rates, mismatches = {}, 0
    for name, kernels in sorted(_kernels.backends().items()):
        start = time.perf_counter()
        for q in sample:
            alpha, beta = kernels.natural_flag_vectors(q.n, q.down)
            descents = kernels.descent_vector(q.n, q.down)
            zeta = kernels.zeta_vector(beta, max(q.n - 1, 0))
            if not (beta == descents and zeta == alpha):
                mismatches += 1
        rates[name] = len(sample) / (time.perf_counter() - start)
    return rates, mismatches


def stamp() -> dict:
    """What must match before two results may be compared."""
    from salient import _kernels
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel_backend": _kernels.BACKEND,
        "kernel_backends": sorted(_kernels.backends()),
        "SALIENT_PURE": os.environ.get("SALIENT_PURE"),
        "nproc": len(os.sched_getaffinity(0)),
        "optimize": sys.flags.optimize,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_acceptance() -> dict:
    from salient import acceptance
    suites = {}
    for _, name, _ in acceptance.CRITERIA:
        ok, message, seconds = acceptance.run_suite(name)
        suites[name] = {"ok": ok, "seconds": seconds, "message": message}
    return {"suites": suites, "stamp": stamp()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode",
                        choices=["setup", "measure", "traced", "acceptance"])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", default="full", choices=["full", "tiny"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--passes", type=int)
    parser.add_argument("--backends", action="store_true")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)
    use_checkout()

    if args.mode == "acceptance":
        if sys.flags.optimize:
            # the suites are bare asserts, which -O strips
            print("acceptance report refuses to run under python -O",
                  file=sys.stderr)
            return 2
        print(json.dumps(run_acceptance()))
        return 0

    work, setup_s = set_up(args.workload, args.seed, args.scale)
    out = {"setup_s": setup_s, "item": work.item}
    if args.mode == "measure":
        result = run_passes(work, seconds=args.seconds)
        latencies = result.pop("latencies")
        out.update(result)
        out["p50_ms"] = 1000 * percentile(latencies, 0.5)
        out["p90_ms"] = 1000 * percentile(latencies, 0.9)
        out["peak_rss_mb"] = peak_rss_mb()
        out["stamp"] = stamp()
        if args.backends:
            out["backend_rates"], mismatches = backend_rates(args.seed,
                                                             args.scale)
            out["failed"] += mismatches
    elif args.mode == "traced":
        from perfbench import trace
        tracer = trace.Tracer()
        tracer.install()
        try:
            result = run_passes(work, passes=args.passes, tracer=tracer)
        finally:
            tracer.uninstall()
        del result["latencies"]
        out.update(result)
        out["layers"] = trace.layer_metrics(tracer)
        if args.trace_file:
            path = Path(args.trace_file)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(trace.summary(tracer)))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
