"""Seeded inputs and system set-ups for the benchmark workloads.

Every workload drives the public system API (``train()`` + ``run()``)
over a :class:`~repro.streams.Trace` generated here from the seed; the
program never sees anything but that trace.  The group table is the
deployment's configuration and stays fixed (seed 7, as in
``benchmarks/bench_serving.py``).  So do the groups' popularity (the
zipf weights, drawn once with the same seed) and the slices the flash
crowds move through.  The seed drives the tuples sampled from those
weights, their timestamps and the fault draws.
Holding the rest fixed keeps the exact byte and accuracy figures of
different seeds within about a percent of each other, so the bounds on
them can be tight.
"""

from __future__ import annotations

import io
import os
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator, List, Optional

import numpy as np

from repro.core.domain import UIDDomain
from repro.core.errors import AverageError
from repro.data import TrafficModel, generate_subnet_table
from repro.obs import (
    EventJournal,
    LifecycleTracer,
    MetricsRegistry,
    SLOEngine,
    parse_slo_spec,
    use_journal,
    use_registry,
    use_slo_engine,
    use_tracer,
)
from repro.serving import ShardedMonitoringSystem
from repro.streams import (
    AdaptiveMonitoringSystem,
    FaultModel,
    MonitoringSystem,
    Trace,
)

HEIGHT = 16
TABLE_SEED = 7
MONITORS = 4
ZIPF = dict(mode="zipf", active_fraction=0.5, zipf_exponent=1.1)

#: sharded-faulty-observed: 800k tuples over 1024 s,
#: half history and half live, 0.25 s windows -> ~2045 live windows of
#: ~195 tuples each.
STREAM_TUPLES = 800_000
STREAM_DURATION = 1024.0
STREAM_WINDOW = 0.25

#: drift-rebuild: 24 phases x 8 windows x 5000 tuples; each phase moves
#: CROWD_SHARE of the traffic into a contiguous CROWD_GROUPS slice of
#: the group table (a local flash crowd), the next slice along each time.
DRIFT_PHASES = 24
DRIFT_WINDOWS_PER_PHASE = 8
DRIFT_WINDOW_TUPLES = 5000
DRIFT_HISTORY_TUPLES = 40_000
CROWD_SHARE = 0.4
CROWD_GROUPS = 0.02

#: The seeded fault mix of ``benchmarks/bench_serving.py``; the fault
#: seed comes from the benchmark seed.
FAULT_MIX = dict(
    drop=0.05, duplicate=0.03, delay=0.04, max_delay_windows=3,
    reorder=0.1, crash=0.002, install_drop=0.1,
)
SLO_RULE = "coverage>=0.9"


@dataclass
class Inputs:
    table: object
    history: Trace
    live: Trace
    window: float


@dataclass
class Telemetry:
    """The live observability plane of one pass."""

    registry: MetricsRegistry
    journal: EventJournal
    sink: io.StringIO
    tracer: LifecycleTracer
    slo: SLOEngine


@dataclass
class Workload:
    inputs: Inputs
    #: Fresh, untrained system for one pass.
    make_system: Callable[[], MonitoringSystem]
    #: Fresh serial system whose report the workload's must equal, or
    #: ``None`` when the passes are only checked against each other.
    make_reference: Optional[Callable[[], MonitoringSystem]]
    telemetry: bool
    #: Drift-triggered rebuilds are the workload's point; a pass with
    #: none means the input no longer exercises them.
    expects_rebuilds: bool = False
    clean_link: bool = True
    #: Set-ups per measured pass: a short set-up is repeated, so each
    #: pass gives several samples of it.
    setups: int = 1


class _Stamped:
    """Mixin timestamping every window report from the documented
    ``_after_window`` hook."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stamps: List[float] = []

    def _after_window(self, window, decoded, actual, report):
        self.stamps.append(perf_counter())
        super()._after_window(window, decoded, actual, report)


class StampedSharded(_Stamped, ShardedMonitoringSystem):
    pass


class StampedAdaptive(_Stamped, AdaptiveMonitoringSystem):
    pass


def subnet_table():
    return generate_subnet_table(
        UIDDomain(HEIGHT), seed=TABLE_SEED, base_stop=0.05, depth_ramp=0.02
    )


def popularity(table) -> np.ndarray:
    """The deployment's fixed per-group zipf weights."""
    return TrafficModel(**ZIPF).group_weights(
        table, np.random.default_rng(TABLE_SEED)
    )


def stream_inputs(seed: int) -> Inputs:
    table = subnet_table()
    rng = np.random.default_rng(seed)
    groups = rng.choice(len(table), size=STREAM_TUPLES, p=popularity(table))
    uids = _draw_uids(table, groups, rng)
    ts = np.sort(rng.random(STREAM_TUPLES) * STREAM_DURATION)
    half = STREAM_TUPLES // 2
    return Inputs(
        table, Trace(ts[:half], uids[:half]), Trace(ts[half:], uids[half:]),
        STREAM_WINDOW,
    )


def _draw_uids(table, groups: np.ndarray, rng) -> np.ndarray:
    starts = table.starts[groups]
    sizes = table.ends[groups] - starts
    return starts + np.floor(rng.random(groups.size) * sizes).astype(np.int64)


def drift_inputs(seed: int) -> Inputs:
    table = subnet_table()
    rng = np.random.default_rng(seed)
    n_groups = len(table)
    base = popularity(table)
    history_groups = rng.choice(n_groups, size=DRIFT_HISTORY_TUPLES, p=base)
    history = Trace.untimed(_draw_uids(table, history_groups, rng))
    crowd = max(1, int(round(CROWD_GROUPS * n_groups)))
    phase_tuples = DRIFT_WINDOWS_PER_PHASE * DRIFT_WINDOW_TUPLES
    # The crowds sweep the table in order, at evenly spaced slices: the
    # bytes and accuracy a seed measures do not hinge on where a few
    # random crowds happened to land.
    stride = (n_groups - crowd) / DRIFT_PHASES
    starts = (stride * (np.arange(DRIFT_PHASES) + 0.5)).astype(int)
    ts_parts, uid_parts = [], []
    for phase, start in enumerate(starts):
        weights = (1.0 - CROWD_SHARE) * base
        weights[start:start + crowd] += CROWD_SHARE / crowd
        weights /= weights.sum()
        groups = rng.choice(n_groups, size=phase_tuples, p=weights)
        uid_parts.append(_draw_uids(table, groups, rng))
        ts_parts.append(
            phase * DRIFT_WINDOWS_PER_PHASE
            + np.sort(rng.random(phase_tuples)) * DRIFT_WINDOWS_PER_PHASE
        )
    live = Trace(np.concatenate(ts_parts), np.concatenate(uid_parts))
    return Inputs(table, history, live, 1.0)


def shard_count() -> int:
    return max(1, min(2, os.cpu_count() or 1))


@contextmanager
def telemetry_scope(live: bool) -> Iterator[Optional[Telemetry]]:
    """Scope a fresh registry, journal (in-memory sink), lifecycle
    tracer and one-rule SLO engine, or nothing when ``live`` is off."""
    if not live:
        yield None
        return
    sink = io.StringIO()
    tel = Telemetry(
        MetricsRegistry(), EventJournal(sink), sink, LifecycleTracer(),
        SLOEngine(parse_slo_spec(SLO_RULE)),
    )
    with use_registry(tel.registry), use_journal(tel.journal), \
            use_tracer(tel.tracer), use_slo_engine(tel.slo):
        yield tel


def load(name: str, seed: int) -> Workload:
    metric = AverageError()
    if name == "sharded-faulty-observed":
        inputs = stream_inputs(seed)
        faults = lambda: FaultModel(seed=seed, **FAULT_MIX)  # noqa: E731
        return Workload(
            inputs,
            lambda: StampedSharded(
                inputs.table, metric, num_monitors=MONITORS,
                shards=shard_count(), algorithm="lpm_greedy", budget=100,
                faults=faults(),
            ),
            lambda: MonitoringSystem(
                inputs.table, metric, num_monitors=MONITORS,
                algorithm="lpm_greedy", budget=100, faults=faults(),
            ),
            telemetry=True, clean_link=False,
        )
    if name == "drift-rebuild":
        inputs = drift_inputs(seed)
        return Workload(
            inputs,
            lambda: StampedAdaptive(
                inputs.table, metric, num_monitors=MONITORS,
                algorithm="nonoverlapping", budget=200, incremental=True,
            ),
            None, telemetry=False, expects_rebuilds=True, setups=5,
        )
    raise KeyError(name)


WORKLOADS = ("sharded-faulty-observed", "drift-rebuild")
