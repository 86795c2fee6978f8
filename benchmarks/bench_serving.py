"""Serving-layer perf harness: sharded ingest + wire fan-in vs serial.

Times the end-to-end window lifecycle of the serial
:class:`~repro.streams.MonitoringSystem` against the
:class:`~repro.serving.ShardedMonitoringSystem` at ``shards`` ∈
{1, 2, 4} over a grid of growing workloads, measuring both:

* **ingest+decode phase time** — the part of the run the serving layer
  actually rearchitects: histogram construction + wire encode (serial:
  one ``process_window`` + scalar encode per (monitor, window) job;
  sharded: the shard prefetch pass — shared-memory fill, worker
  build/encode/pack, result fan-in) plus window decode (serial:
  parse × k payloads, merge, re-estimate; sharded: one k-way
  ``merge_views`` at the tenant boundary).  Scaffolding both runs
  share unchanged (trace split, window segmentation, exact ground
  truth, channel/fault bookkeeping) is excluded from this phase
  metric and included in the full-run wall time.
* **full-run wall time** — ``system.run()`` end to end.

Every timed pair is also checked for **report identity**: the sharded
``SystemReport`` must equal the serial one (dataclass equality), clean
and under a seeded fault model.  Timing is interleaved
(serial/sharded alternate within each repetition) and best-of-N so
load drift on a busy box hits both sides equally.

Extra legs:

* ``--mode threads`` (or ``all``) — the GIL-bound comparison:
  ``parallel=N`` threads vs ``shards=N`` processes at the largest grid
  point (recorded in ``docs/performance.md``).
* tenant scaling — a :class:`~repro.serving.ServingEngine` fleet
  sharing one :class:`~repro.serving.SharedServingCache`, with cache
  hit/miss stats and admission outcomes.
* observability overhead — every grid point reruns the top shard
  count with a live metrics registry + journal (worker snapshot
  fan-in, resource profiler, shard/tenant rollups all active) and
  records the cost ratio against the uninstrumented sharded run,
  asserting the report stays identical to an instrumented serial run.

Usage::

    python benchmarks/bench_serving.py                 # full grid
    python benchmarks/bench_serving.py --grid tiny     # CI smoke grid
    python benchmarks/bench_serving.py --mode all      # + threads leg
"""

from __future__ import annotations

import argparse
import io
import json
import os
import time
from typing import Dict, List, Optional

from repro.core.domain import UIDDomain
from repro.core.errors import AverageError
from repro.data import TrafficModel, generate_subnet_table
from repro.data.traffic import generate_timestamped_trace
from repro.obs import EventJournal, MetricsRegistry, use_journal, use_registry
from repro.serving import ServingEngine, SharedServingCache, ShardedMonitoringSystem
from repro.streams import FaultModel, MonitoringSystem, Trace

SCHEMA = "repro.bench_serving.v1"

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir,
    "BENCH_serving.json",
)

#: (height, tuples, window_width, monitors, budget) rows — tuples and
#: window count both grow monotonically, so the last row is the
#: largest grid point (the acceptance point for the shards=4 target).
FULL_SIZES = [
    (16, 200_000, 1.0, 4, 100),
    (16, 400_000, 0.5, 4, 100),
    (16, 800_000, 0.25, 4, 100),
]
TINY_SIZES = [(12, 40_000, 8.0, 4, 50)]

SHARD_COUNTS = (1, 2, 4)

#: Seeded fault mix for the report-identity-under-faults leg.
FAULTS = dict(
    drop=0.05, duplicate=0.03, delay=0.04, max_delay_windows=3,
    reorder=0.1, crash=0.002, install_drop=0.1, seed=23,
)


def _workload(height: int, tuples: int):
    table = generate_subnet_table(
        UIDDomain(height), seed=7, base_stop=0.05, depth_ramp=0.02
    )
    model = TrafficModel(
        mode="zipf", active_fraction=0.5, zipf_exponent=1.1
    )
    ts, uids = generate_timestamped_trace(
        table, tuples, duration=1024.0, seed=11, model=model
    )
    half = len(uids) // 2
    history = Trace(ts[:half], uids[:half])
    live = Trace(ts[half:], uids[half:])
    return table, history, live


def _phase_timers(system) -> Dict[str, float]:
    """Wrap the system's ingest and decode entry points with timers.

    Returns the accumulator dict; ``ingest`` collects
    ``_partition_jobs`` (and, for sharded systems, the prefetch pass
    minus its split/segment/ground-truth scaffolding — work the serial
    run performs identically), ``decode`` collects
    ``decode_window``.  Call :func:`_unwrap_timers` after the run.
    """
    t = {"ingest": 0.0, "decode": 0.0, "scaffold": 0.0}

    pj = system.__class__._partition_jobs.__get__(system)

    def timed_pj(pool, jobs):
        t0 = time.perf_counter()
        result = pj(pool, jobs)
        t["ingest"] += time.perf_counter() - t0
        return result

    system._partition_jobs = timed_pj

    if hasattr(system, "_prefetch"):
        pf = system.__class__._prefetch.__get__(system)
        seg = system.__class__._segment_shares.__get__(system)
        tru = system.__class__._prefetch_truth.__get__(system)

        def timed_seg(*args):
            t0 = time.perf_counter()
            result = seg(*args)
            t["scaffold"] += time.perf_counter() - t0
            return result

        def timed_tru(*args):
            t0 = time.perf_counter()
            tru(*args)
            t["scaffold"] += time.perf_counter() - t0

        def timed_pf(*args):
            system._segment_shares = timed_seg
            system._prefetch_truth = timed_tru
            t0 = time.perf_counter()
            pf(*args)
            t["ingest"] += time.perf_counter() - t0 - t["scaffold"]
            del system._segment_shares, system._prefetch_truth

        system._prefetch = timed_pf

    dw = system.control_center.__class__.decode_window.__get__(
        system.control_center
    )

    def timed_dw(*args, **kwargs):
        t0 = time.perf_counter()
        result = dw(*args, **kwargs)
        t["decode"] += time.perf_counter() - t0
        return result

    system.control_center.decode_window = timed_dw
    return t


def _unwrap_timers(system) -> None:
    for attr in ("_partition_jobs", "_prefetch"):
        system.__dict__.pop(attr, None)
    system.control_center.__dict__.pop("decode_window", None)


def _bench_point(
    height: int, tuples: int, width: float, monitors: int, budget: int,
    reps: int,
) -> Dict[str, object]:
    table, history, live = _workload(height, tuples)
    metric = AverageError()

    serial = MonitoringSystem(
        table, metric, num_monitors=monitors, budget=budget
    )
    serial.train(history)
    sharded = {}
    for shards in SHARD_COUNTS:
        system = ShardedMonitoringSystem(
            table, metric, num_monitors=monitors, shards=shards,
            budget=budget,
        )
        system.train(history)
        sharded[shards] = system

    # Warm-up (pages, pools, compiled caches) — untimed.
    serial_report = serial.run(live, window_width=width)
    shard_reports = {
        k: s.run(live, window_width=width) for k, s in sharded.items()
    }

    serial_total: List[float] = []
    serial_phase: List[float] = []
    shard_total: Dict[int, List[float]] = {k: [] for k in SHARD_COUNTS}
    shard_phase: Dict[int, List[float]] = {k: [] for k in SHARD_COUNTS}
    for _rep in range(reps):
        timers = _phase_timers(serial)
        t0 = time.perf_counter()
        serial_report = serial.run(live, window_width=width)
        serial_total.append(time.perf_counter() - t0)
        serial_phase.append(timers["ingest"] + timers["decode"])
        _unwrap_timers(serial)
        for shards, system in sharded.items():
            timers = _phase_timers(system)
            t0 = time.perf_counter()
            shard_reports[shards] = system.run(live, window_width=width)
            shard_total[shards].append(time.perf_counter() - t0)
            shard_phase[shards].append(timers["ingest"] + timers["decode"])
            _unwrap_timers(system)

    # Report identity, clean and faulty (faults only at shards=4 — one
    # serial + one sharded extra run per point).
    identical = {
        k: shard_reports[k] == serial_report for k in SHARD_COUNTS
    }
    serial_faulty = serial.run(
        live, window_width=width, faults=FaultModel(**FAULTS)
    )
    sharded_faulty = sharded[max(SHARD_COUNTS)].run(
        live, window_width=width, faults=FaultModel(**FAULTS)
    )
    faulty_identical = sharded_faulty == serial_faulty

    # Observability-overhead guardrail: the top shard count rerun with
    # a live registry + journal (worker fan-in, resource profiler, the
    # whole cross-process telemetry path) must stay report-identical to
    # a serial run under the same instrumentation, and its cost lands
    # in the report as its own column.  Serial and sharded interleave
    # with fresh sinks per rep, so a slow stretch of the host bills
    # both sides alike.
    top_shards = max(SHARD_COUNTS)
    serial_tel_total: List[float] = []
    shard_tel_total: List[float] = []
    serial_telemetry = telemetry_report = None
    for _rep in range(reps):
        with use_registry(MetricsRegistry()), \
                use_journal(EventJournal(io.StringIO())):
            t0 = time.perf_counter()
            serial_telemetry = serial.run(live, window_width=width)
            serial_tel_total.append(time.perf_counter() - t0)
        with use_registry(MetricsRegistry()), \
                use_journal(EventJournal(io.StringIO())):
            t0 = time.perf_counter()
            telemetry_report = sharded[top_shards].run(
                live, window_width=width
            )
            shard_tel_total.append(time.perf_counter() - t0)
    telemetry_identical = telemetry_report == serial_telemetry

    prefetch_misses = {
        k: sharded[k].prefetch_misses for k in SHARD_COUNTS
    }
    for system in sharded.values():
        system.close()

    live_tuples = sum(w.tuples for w in serial_report.windows)
    best_serial = min(serial_total)
    best_serial_phase = min(serial_phase)
    point = {
        "workload": {
            "height": height,
            "tuples": tuples,
            "live_tuples": live_tuples,
            "windows": len(serial_report.windows),
            "window_width": width,
            "monitors": monitors,
            "budget": budget,
            "traffic": "zipf(active=0.5, s=1.1)",
        },
        "reps": reps,
        "serial": {
            "full_run_s": round(best_serial, 6),
            "ingest_decode_s": round(best_serial_phase, 6),
            "tuples_per_sec": round(live_tuples / best_serial, 1),
        },
        "shards": {},
        "faulty_identical_shards_%d" % max(SHARD_COUNTS): faulty_identical,
        "telemetry": {
            "shards": top_shards,
            "full_run_s": round(min(shard_tel_total), 6),
            "overhead_vs_plain": round(
                min(shard_tel_total) / min(shard_total[top_shards]), 3
            ),
            "serial_full_run_s": round(min(serial_tel_total), 6),
            "serial_overhead_vs_plain": round(
                min(serial_tel_total) / best_serial, 3
            ),
            "report_identical": telemetry_identical,
        },
    }
    for shards in SHARD_COUNTS:
        best = min(shard_total[shards])
        best_phase = min(shard_phase[shards])
        point["shards"][str(shards)] = {
            "full_run_s": round(best, 6),
            "ingest_decode_s": round(best_phase, 6),
            "tuples_per_sec": round(live_tuples / best, 1),
            "full_run_speedup": round(best_serial / best, 3),
            "ingest_decode_speedup": round(best_serial_phase / best_phase, 3),
            "report_identical": identical[shards],
            "prefetch_misses": prefetch_misses[shards],
        }
    return point


def _bench_threads(
    height: int, tuples: int, width: float, monitors: int, budget: int,
    workers: int, reps: int,
) -> Dict[str, object]:
    """The GIL bound: ``parallel=N`` threads against ``shards=N``
    processes on the same workload.  Thread workers run the same
    compiled kernels but share one interpreter lock, so per-window
    Python overhead (message assembly, encode bookkeeping, accounting)
    serializes; the shard processes pay IPC instead and batch that
    overhead away."""
    table, history, live = _workload(height, tuples)
    metric = AverageError()
    seconds: Dict[str, float] = {}
    reports = {}
    serial = MonitoringSystem(
        table, metric, num_monitors=monitors, budget=budget, parallel=1
    )
    threaded = MonitoringSystem(
        table, metric, num_monitors=monitors, budget=budget,
        parallel=workers,
    )
    sharded = ShardedMonitoringSystem(
        table, metric, num_monitors=monitors, shards=workers,
        budget=budget,
    )
    systems = {
        "serial": serial,
        "threads_%d" % workers: threaded,
        "shards_%d" % workers: sharded,
    }
    for system in systems.values():
        system.train(history)
        system.run(live, window_width=width)  # warm-up
    for name, system in systems.items():
        best = float("inf")
        for _rep in range(reps):
            t0 = time.perf_counter()
            reports[name] = system.run(live, window_width=width)
            best = min(best, time.perf_counter() - t0)
        seconds[name] = best
    sharded.close()
    live_tuples = sum(w.tuples for w in reports["serial"].windows)
    doc = {
        "workload": {
            "height": height, "tuples": tuples, "window_width": width,
            "monitors": monitors, "budget": budget, "workers": workers,
        },
        "seconds": {k: round(v, 6) for k, v in seconds.items()},
        "tuples_per_sec": {
            k: round(live_tuples / v, 1) for k, v in seconds.items()
        },
        "thread_speedup": round(
            seconds["serial"] / seconds["threads_%d" % workers], 3
        ),
        "process_speedup": round(
            seconds["serial"] / seconds["shards_%d" % workers], 3
        ),
        "reports_identical": all(
            r == reports["serial"] for r in reports.values()
        ),
    }
    doc["crossover"] = (
        "processes" if doc["process_speedup"] > doc["thread_speedup"]
        else "threads"
    )
    return doc


def _bench_tenants(
    height: int, tuples: int, width: float, budget: int, n_tenants: int,
) -> Dict[str, object]:
    """Multi-tenant fleet over one shared cache: every tenant after the
    first should reuse the canonical table's compiled state and the
    finished rebuild, so marginal tenant cost is a run, not a build."""
    table, history, live = _workload(height, tuples)
    cache = SharedServingCache()
    spec = ";".join(
        "tenant-%d:budget=%d,bytes=50000000" % (i, budget)
        for i in range(n_tenants)
    )
    t0 = time.perf_counter()
    with ServingEngine(
        table, AverageError(), spec, shards=2,
        capacity_bytes=50_000_000 * n_tenants, cache=cache,
    ) as engine:
        results = engine.run(history, live, window_width=width)
    elapsed = time.perf_counter() - t0
    reports = [r.report for r in results.values() if r.admitted]
    return {
        "workload": {
            "height": height, "tuples": tuples, "window_width": width,
            "budget": budget, "tenants": n_tenants, "shards": 2,
        },
        "seconds": round(elapsed, 6),
        "admitted": sum(1 for r in results.values() if r.admitted),
        "rejected": sum(1 for r in results.values() if not r.admitted),
        "identical_reports": all(r == reports[0] for r in reports),
        "cache": cache.stats(),
    }


def run_grid(grid: str, mode: str, reps: int) -> Dict[str, object]:
    sizes = TINY_SIZES if grid == "tiny" else FULL_SIZES
    points: List[Dict[str, object]] = []
    for height, tuples, width, monitors, budget in sizes:
        point = _bench_point(height, tuples, width, monitors, budget, reps)
        points.append(point)
        top = point["shards"][str(max(SHARD_COUNTS))]
        print(
            "h=%d n=%d windows=%d: shards=%d ingest+decode %sx, "
            "full run %sx, identical=%s, faulty_identical=%s, "
            "telemetry %sx cost (identical=%s)"
            % (
                height, tuples, point["workload"]["windows"],
                max(SHARD_COUNTS), top["ingest_decode_speedup"],
                top["full_run_speedup"], top["report_identical"],
                point["faulty_identical_shards_%d" % max(SHARD_COUNTS)],
                point["telemetry"]["overhead_vs_plain"],
                point["telemetry"]["report_identical"],
            )
        )
    largest = points[-1]
    top = largest["shards"][str(max(SHARD_COUNTS))]
    doc: Dict[str, object] = {
        "schema": SCHEMA,
        "generated_by": "benchmarks/bench_serving.py",
        "grid": grid,
        "mode": mode,
        "shard_counts": list(SHARD_COUNTS),
        "points": points,
        "largest_point": {
            "tuples": largest["workload"]["tuples"],
            "windows": largest["workload"]["windows"],
            "ingest_decode_speedup": {
                k: v["ingest_decode_speedup"]
                for k, v in largest["shards"].items()
            },
            "full_run_speedup": {
                k: v["full_run_speedup"]
                for k, v in largest["shards"].items()
            },
            "meets_3x_ingest_decode": bool(
                top["ingest_decode_speedup"] >= 3.0
            ),
        },
        "all_reports_identical": all(
            v["report_identical"]
            for p in points
            for v in p["shards"].values()
        ),
        "all_faulty_identical": all(
            p["faulty_identical_shards_%d" % max(SHARD_COUNTS)]
            for p in points
        ),
        "all_telemetry_identical": all(
            p["telemetry"]["report_identical"] for p in points
        ),
        "max_telemetry_overhead": max(
            p["telemetry"]["overhead_vs_plain"] for p in points
        ),
    }
    if mode in ("threads", "all"):
        height, tuples, width, monitors, budget = sizes[-1]
        doc["threads"] = _bench_threads(
            height, tuples, width, monitors, budget,
            workers=max(SHARD_COUNTS), reps=max(1, reps - 1),
        )
        print(
            "threads leg: threads %sx vs processes %sx -> %s win "
            "(identical=%s)"
            % (
                doc["threads"]["thread_speedup"],
                doc["threads"]["process_speedup"],
                doc["threads"]["crossover"],
                doc["threads"]["reports_identical"],
            )
        )
    height, tuples, width, _monitors, budget = sizes[0]
    doc["tenants"] = _bench_tenants(
        height, tuples, width, budget, n_tenants=3
    )
    print(
        "tenant leg: %d tenants in %ss, cache %s"
        % (
            doc["tenants"]["workload"]["tenants"],
            doc["tenants"]["seconds"],
            doc["tenants"]["cache"],
        )
    )
    return doc


def write_report(doc: Dict[str, object], out: str) -> str:
    with open(out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--grid", choices=("tiny", "full"), default="full",
        help="workload grid: 'tiny' is the CI smoke grid",
    )
    parser.add_argument(
        "--mode", choices=("shards", "threads", "all"), default="shards",
        help="'threads'/'all' adds the GIL-bound thread-vs-process leg",
    )
    parser.add_argument(
        "--reps", type=int, default=3,
        help="timing repetitions (best-of-N, interleaved)",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT,
        help="output JSON path (default: repo-root BENCH_serving.json)",
    )
    args = parser.parse_args(argv)
    doc = run_grid(args.grid, args.mode, max(1, args.reps))
    path = write_report(doc, args.out)
    print(f"wrote {os.path.abspath(path)}")
    if not doc["all_reports_identical"] or not doc["all_faulty_identical"]:
        print("FAIL: sharded reports are not identical to serial")
        return 1
    if not doc["all_telemetry_identical"]:
        print(
            "FAIL: sharded report with telemetry enabled differs from "
            "the instrumented serial run"
        )
        return 1
    if args.grid == "full" and not doc["largest_point"][
        "meets_3x_ingest_decode"
    ]:
        print(
            "FAIL: largest grid point is below the 3x ingest+decode "
            "target at shards=%d" % max(SHARD_COUNTS)
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
