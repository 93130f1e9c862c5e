"""Run one benchmark workload against the mutkit checkout this file sits in.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` iterations alternate untraced and traced, and it reports the
per-layer metrics of the traced ones plus the tracing overhead.  Lines
before it are a readable summary.  The exit code is 0 only when every
operation succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have passed,
# so that a set-up of a few milliseconds still yields a steady median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
MIN_ITERATIONS = 3


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _print_result(correct: bool, ops, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mutkit" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "toyrunner.py").is_file():
        return _fail(f"no mutkit sources under {ROOT} (need src/mutkit and tests/toyrunner.py)")
    sys.path.insert(0, str(ROOT / "src"))
    import mutkit.cli  # noqa: F401  (imports every layer before any timing)
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    # mutkit logs each HTTP 429 retry as a warning; keep stderr readable.
    logging.getLogger("mutkit").setLevel(logging.ERROR)

    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    # mutkit writes each program under test to a temporary directory; keep
    # those inside the checkout too.
    tempfile.tempdir = str(work / "tmp")
    (work / "tmp").mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)

    setups: list[float] = []
    while len(setups) < (1 if args.trace else SETUP_REPEATS) \
            or (not args.trace and sum(setups) < SETUP_SECONDS):
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)

    recorder = spans.SpanRecorder() if args.trace else None
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while (index < MIN_ITERATIONS + (1 if args.trace else 0)
           or time.perf_counter() < deadline):
        tracing = recorder is not None and index % 2 == 1
        gc.collect()  # garbage from the previous iteration is not this one's cost
        if tracing:
            recorder.run = index
            workload.recorder = recorder
            recorder.install()
        try:
            times = workload.iteration(index)
        finally:
            if tracing:
                recorder.uninstall()
                workload.recorder = None
        (traced if tracing else plain).append(times)
        index += 1

    correct = workload.ops.failed == 0
    for reason in workload.ops.reasons[:20]:
        print(f"FAILED {reason}")
    print(f"workload {args.workload} seed {args.seed}: {index} iterations, "
          f"checks {'PASS' if correct else 'FAIL'}, ops failed "
          f"{workload.ops.failed} of {workload.ops.attempted} "
          f"(ops_failed_ratio {workload.ops.failed / workload.ops.attempted:.4f})")

    def medians(runs):
        keys = [key for key in workload.steps if all(key in run for run in runs)]
        result = {key: statistics.median([run[key] for run in runs]) for key in keys}
        result["total_s"] = statistics.median([sum(run.values()) for run in runs])
        return result

    for label, runs in (("untraced", plain), ("traced", traced)):
        if runs:
            print(f"  total_s per {label} iteration: "
                  + " ".join(f"{sum(run.values()):.3f}" for run in runs))
    if not args.trace:
        steps = medians(plain)
        for name, value in steps.items():
            print(f"  {name:<18}{value:10.4f} s   (median of {len(plain)})")
        derived = workload.derived(steps) if correct else {}
        for name, (value, unit) in derived.items():
            print(f"  {name:<18}{value:10.2f} {unit}")
        metrics = {
            "total_s": (steps["total_s"], "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"  setup_s  {metrics['setup_s'][0]:.4f} s (median of {len(setups)}), "
              f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB")
    else:
        metrics = trace_report(spans, recorder, plain, traced, medians, args)
    _print_result(correct, workload.ops, metrics)
    shutil.rmtree(work, ignore_errors=True)
    return 0 if correct else 1


def trace_report(spans, recorder, plain, traced, medians, args) -> dict:
    """Per-layer metrics (median over traced iterations) plus tracing overhead."""
    runs = sorted({span.run for span in recorder.spans})
    per_run = [spans.layer_metrics(recorder.of_run(run)) for run in runs]
    metrics = {name: (statistics.median([values[name] for values in per_run]), spans.unit_of(name))
               for name in per_run[0]}
    untraced = medians(plain)["total_s"]
    traced_total = medians(traced)["total_s"]
    metrics["trace.total_s"] = (traced_total, "s")
    metrics["trace.untraced_total_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced_total - untraced, "s")
    metrics["trace.overhead_ratio"] = ((traced_total - untraced) / untraced, "ratio")

    accounted = [sum(values[f"{layer}.wall_s"] for layer in ("bench",) + spans.LAYERS)
                 / sum(times.values()) for values, times in zip(per_run, traced)]
    print(f"  layer wall times (bench glue included) account for "
          f"{statistics.median(accounted):.4f} of each traced iteration's total_s")
    for name, (value, unit) in metrics.items():
        if value:
            print(f"  {name:<34}{value:14.4f} {unit}")
    print(f"  (zero-valued metrics omitted; median over {len(runs)} traced iterations)")
    recorder.write(ROOT / ".perfbench_work" / "traces" / f"{args.workload}.spans.jsonl")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
