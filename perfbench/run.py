"""Whole-pipeline benchmark: one workload, one seed, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload drift-rebuild --seed 1 \
        --seconds 10 --trace 0

The load model is a closed loop from a single client process: each
measured pass builds a fresh system, trains it on the workload's
history and streams the live trace through ``run()``; the next pass
starts only when the previous one has returned.  Passes repeat until
``--seconds`` of wall time has gone by.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` adds one
traced pass (spans recorded by :mod:`spans` around each layer's entry
points) and prints the per-layer metrics instead; the spans are written
to ``perfbench/out/``.  Either way the reports are checked outside the
timed region: every pass (and the traced one) must produce the same
report, and the sharded workload must equal a serial run with the same
seeds and faults.  The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np

    import repro  # noqa: F401
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the program under test: {exc}")

import spans  # noqa: E402
import workloads  # noqa: E402

#: Passes below this count are topped up even past ``--seconds``, so
#: the medians (set-up time included) always have several samples.
MIN_PASSES = 5
#: Repetitions of the bare bincount roofline.
ROOFLINE_REPS = 20
#: The traced pass is rejected when layer spans cover less of ``run()``.
MIN_COVERAGE = 0.9

@dataclass
class Pass:
    setup_s: List[float]
    run_s: float
    first_report_s: float
    intervals_s: List[float]
    #: From the last window report to ``run()`` returning.
    tail_s: float
    #: Peak RSS of the process so far, read when the pass ends.
    max_rss_mb: float
    report: object
    extra: Dict[str, float] = field(default_factory=dict)


def _setup(wl: workloads.Workload):
    """Build and train a fresh system; for sharded systems also fork
    the worker pool, which the first ``run()`` would otherwise pay."""
    t0 = perf_counter()
    system = wl.make_system()
    system.train(wl.inputs.history)
    if hasattr(system, "_ensure_pool"):
        # Start the shared-memory resource tracker first, so the forked
        # workers share it as they do when run() forks the pool.
        resource_tracker.ensure_running()
        system._ensure_pool().submit(os.getpid).result()
    return system, perf_counter() - t0


def setups(wl: workloads.Workload, repeat: bool):
    """Set up ``wl.setups`` times (once when not ``repeat``); keep the
    last system and close the others."""
    system, took = _setup(wl)
    times = [took]
    for _ in range(wl.setups - 1 if repeat else 0):
        if hasattr(system, "close"):
            system.close()
        system, took = _setup(wl)
        times.append(took)
    return system, times


def run_pass(wl: workloads.Workload, recorder=None) -> Pass:
    # Passes are independent: start each from a collected heap so one
    # pass's garbage does not bill the next.
    gc.collect()
    inputs = wl.inputs
    with workloads.telemetry_scope(wl.telemetry) as tel:
        if recorder is not None:
            recorder.attach_telemetry(tel)
        with spans.root(recorder, "setup"):
            # One set-up in the traced pass, so its layer times are
            # those of a single pass.
            system, setup_s = setups(wl, repeat=recorder is None)
        start = perf_counter()
        with spans.root(recorder, "run"):
            report = system.run(inputs.live, window_width=inputs.window)
        run_s = perf_counter() - start
        extra = {}
        if hasattr(system, "close"):
            system.close()
            extra["prefetch_hits"] = getattr(system, "prefetch_hits", 0)
            extra["prefetch_misses"] = getattr(system, "prefetch_misses", 0)
    stamps = system.stamps
    return Pass(
        setup_s=setup_s,
        run_s=run_s,
        first_report_s=stamps[0] - start,
        intervals_s=[b - a for a, b in zip(stamps, stamps[1:])],
        tail_s=start + run_s - stamps[-1],
        max_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        report=report,
        extra=extra,
    )


def reference_report(wl: workloads.Workload):
    with workloads.telemetry_scope(wl.telemetry):
        system = wl.make_reference()
        system.train(wl.inputs.history)
        return system.run(wl.inputs.live, window_width=wl.inputs.window)


def _header(report) -> dict:
    fields = dict(vars(report))
    fields.pop("windows")
    return fields


def failed_windows(expected, actual) -> int:
    """Windows of ``actual`` that differ from ``expected``; every
    window counts as failed when the report-level fields differ."""
    if _header(expected) != _header(actual):
        return max(len(actual.windows), 1)
    failed = abs(len(expected.windows) - len(actual.windows))
    failed += sum(a != b for a, b in zip(expected.windows, actual.windows))
    return failed


def sanity_failures(wl: workloads.Workload, report) -> int:
    """Invariants a correct report has regardless of timing: every live
    tuple lands in exactly one window, errors are finite, bytes were
    shipped, and on a clean link every monitor reports every window."""
    windows = report.windows
    failed = sum(
        not math.isfinite(w.error)
        or wl.clean_link and (
            w.histogram_bytes <= 0
            or w.monitors_reporting != workloads.MONITORS
        )
        for w in windows
    )
    if sum(w.tuples for w in windows) != len(wl.inputs.live) or not windows:
        failed = max(len(windows), 1)
    if wl.expects_rebuilds and not report.rebuilds:
        failed = max(len(windows), 1)
    return failed


def measure(wl: workloads.Workload, seconds: float) -> List[Pass]:
    """Passes until ``seconds`` of wall time, set-ups included, so a
    run lasts about as long on a slow host as on a fast one; a slow
    host measures fewer passes instead."""
    passes: List[Pass] = []
    start = perf_counter()
    while perf_counter() - start < seconds or len(passes) < MIN_PASSES:
        passes.append(run_pass(wl))
    return passes


def best_per_index(samples: List[List[float]]) -> List[float]:
    """The fastest time of each unit of work over the passes.

    Every pass does the same work in the same order (the reports are
    checked to be identical, and every pass sets up as often), so
    sample ``i`` of one pass repeats sample ``i`` of every other.  The
    host's speed changes from one second to the next and slows whole
    passes; noise of that kind only ever adds time, so each unit's
    fastest repetition is its closest estimate of the time the program
    itself needs."""
    return [min(times) for times in zip(*samples)]


def best_run_s(passes: List[Pass]) -> float:
    """The wall time of a ``run()`` made of each part's fastest
    repetition: time to the first report, every window interval, and
    the tail after the last report."""
    return (
        min(p.first_report_s for p in passes)
        + sum(best_per_index([p.intervals_s for p in passes]))
        + min(p.tail_s for p in passes)
    )


def end_to_end(wl, passes: List[Pass]) -> Dict:
    report = passes[0].report
    live_tuples = sum(w.tuples for w in report.windows)
    windows = report.windows
    return {
        "setup_s": (statistics.median(
            best_per_index([p.setup_s for p in passes])), "s"),
        "tuples_per_s": (live_tuples / best_run_s(passes), "1/s"),
        "window_ms_p50": (1e3 * statistics.median(
            best_per_index([p.intervals_s for p in passes])), "ms"),
        "upstream_bytes_per_window": (
            sum(w.histogram_bytes for w in windows) / len(windows), "bytes"
        ),
        "mean_error": (report.mean_error, "ratio"),
        # After the first pass: the process keeps ~15 MB per pass on
        # drift-rebuild after each system is gone, so a peak read at the
        # end would grow with the number of passes, i.e. with speed.
        "peak_rss_mb": (passes[0].max_rss_mb, "MB"),
    }


def roofline_tuples_per_s(wl: workloads.Workload) -> float:
    """Bare ``np.bincount`` over the same live identifiers: the
    per-tuple ceiling any grouped count over this volume runs into."""
    uids = wl.inputs.live.uids
    minlength = 1 << workloads.HEIGHT
    np.bincount(uids, minlength=minlength)
    t0 = perf_counter()
    for _ in range(ROOFLINE_REPS):
        np.bincount(uids, minlength=minlength)
    return uids.size * ROOFLINE_REPS / (perf_counter() - t0)


def per_layer(wl, passes: List[Pass], traced: Pass, recorder) -> Dict:
    metrics = recorder.layer_metrics(traced)
    untraced_tps = end_to_end(wl, passes)["tuples_per_s"][0]
    intervals = [s for p in passes for s in p.intervals_s]
    roofline = roofline_tuples_per_s(wl)
    metrics.update({
        "system.first_report_ms": (
            1e3 * statistics.fmean(p.first_report_s for p in passes), "ms"
        ),
        "system.window_ms_p99": (
            1e3 * statistics.quantiles(intervals, n=100)[98], "ms"
        ),
        "trace.overhead_ratio": (
            traced.run_s / statistics.median(p.run_s for p in passes),
            "ratio",
        ),
        "process.rss_growth_mb_per_pass": (
            (passes[-1].max_rss_mb - passes[0].max_rss_mb)
            / (len(passes) - 1), "MB",
        ),
        "roofline.bincount_tuples_per_s": (roofline, "1/s"),
        "roofline.fraction": (untraced_tps / roofline, "ratio"),
    })
    return metrics


def _stop_resource_tracker() -> None:
    """The sharded system's shared memory starts multiprocessing's
    resource tracker process; stop it and wait for it, so no process
    the benchmark caused outlives it."""
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = workloads.load(args.workload, args.seed)
    passes = measure(wl, args.seconds)

    expected = passes[0].report
    checked = [p.report for p in passes[1:]]
    failed = sanity_failures(wl, expected)
    if wl.make_reference is not None:
        checked.append(reference_report(wl))

    traced = recorder = None
    if args.trace:
        recorder = spans.Recorder()
        with recorder.probes():
            traced = run_pass(wl, recorder)
        checked.append(traced.report)
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        if recorder.coverage() < MIN_COVERAGE:
            # Time the layer spans miss is time no layer metric shows.
            failed += len(traced.report.windows)
    failed += sum(failed_windows(expected, r) for r in checked)
    attempted = len(expected.windows) * (1 + len(checked))

    metrics = (
        per_layer(wl, passes, traced, recorder)
        if args.trace
        else end_to_end(wl, passes)
    )
    _stop_resource_tracker()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
