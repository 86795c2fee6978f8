"""Windowed registry snapshots and per-window deltas.

A cumulative :class:`~repro.obs.registry.MetricsRegistry` answers "what
has happened so far"; a live operator wants "what happened *this*
window".  This module bridges the two:

* :func:`take_snapshot` freezes the registry's current state into an
  immutable :class:`RegistrySnapshot` (counter/gauge values, histogram
  and timer states keyed by ``name{label=value,...}``).
* :func:`snapshot_delta` turns two snapshots into one time-series
  record: **counters as deltas**, **gauges as levels**, **histograms
  and timers as per-window count/sum/mean plus approximate p50/p90/p99
  quantiles** interpolated from the bucket-count deltas.
* :func:`emit_window_record` appends the same record, taken against
  the previous window, to ``registry.window_series`` — the monitoring
  loop calls it once per decoded window, so a run leaves a full
  per-window telemetry trail behind (served live at ``/series.json``
  by :mod:`repro.obs.server` and rendered by ``repro top``).  It takes
  no snapshot: each instrument child keeps the values the last record
  saw, so an unchanged instrument costs a comparison, not a copy.

Nothing here changes an instrument's values (the per-window record
only notes on each child what it last emitted).  Everything is free
when the registry is the no-op ``NullRegistry``
(:func:`emit_window_record` returns immediately).

Snapshot-delta record shape (JSON-friendly)::

    {"window": 3, "ts": 12.345,          # seconds since registry epoch
     "counters":  {"system.tuples": 4096.0, ...},          # deltas
     "gauges":    {"quality.coverage": 1.0, ...},          # levels
     "timers":    {"control.decode.duration":
                   {"count": 1, "sum": ..., "mean": ...,
                    "p50": ..., "p90": ..., "p99": ...}},
     "histograms": {...same shape as timers...}}
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .registry import (
    Counter,
    Gauge,
    HistogramInstrument,
    MetricsRegistry,
    Timer,
)

__all__ = [
    "RegistrySnapshot",
    "take_snapshot",
    "snapshot_delta",
    "emit_window_record",
    "bucket_quantile",
    "instrument_key",
]

#: Quantiles reported for every histogram/timer family per window.
WINDOW_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p90", 0.90), ("p99", 0.99),
)


def instrument_key(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    """Flat series key for one instrument child:
    ``name`` or ``name{k=v,...}`` (labels already sorted)."""
    if not labels:
        return name
    body = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{body}}}"


@dataclass(frozen=True)
class _HistogramState:
    """Frozen histogram/timer state inside a snapshot."""

    count: int
    sum: float
    bounds: Tuple[float, ...]
    bucket_counts: Tuple[int, ...]
    #: Observation extrema (the instrument's sentinels ±inf when no
    #: observation landed yet) — carried so the cross-process snapshot
    #: merge (:mod:`repro.obs.crossproc`) can pool them losslessly.
    min: float = float("inf")
    max: float = float("-inf")


@dataclass(frozen=True)
class RegistrySnapshot:
    """An immutable point-in-time capture of a registry's instruments.

    The mappings are built once and never mutated; treat them as
    read-only (they are shared between the snapshot and any deltas
    derived from it).
    """

    #: Seconds since the registry's epoch (monotonic clock).
    ts: float
    counters: Dict[str, float]
    gauges: Dict[str, float]
    histograms: Dict[str, _HistogramState]
    #: Keys in ``histograms`` that are timers (durations in seconds).
    timer_keys: FrozenSet[str]


def take_snapshot(registry: MetricsRegistry) -> RegistrySnapshot:
    """Freeze the registry's current instrument values."""
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, _HistogramState] = {}
    timer_keys = set()
    for kind, inst in registry.instruments():
        key = instrument_key(inst.name, inst.labels)
        if isinstance(inst, HistogramInstrument):
            with inst._lock:
                state = _HistogramState(
                    count=inst.count,
                    sum=inst.sum,
                    bounds=tuple(inst.bounds),
                    bucket_counts=tuple(inst.bucket_counts),
                    min=inst.min,
                    max=inst.max,
                )
            histograms[key] = state
            if isinstance(inst, Timer):
                timer_keys.add(key)
        elif isinstance(inst, Counter):
            counters[key] = inst.value
        elif isinstance(inst, Gauge):
            gauges[key] = inst.value
    return RegistrySnapshot(
        ts=time.perf_counter() - registry.epoch,
        counters=counters,
        gauges=gauges,
        histograms=histograms,
        timer_keys=frozenset(timer_keys),
    )


def bucket_quantile(
    bounds: Tuple[float, ...],
    bucket_counts: Tuple[int, ...],
    q: float,
) -> float:
    """Approximate the ``q``-quantile of a bucketed distribution.

    Linear interpolation within the bucket holding the target rank
    (Prometheus ``histogram_quantile`` style); the overflow (+Inf)
    bucket is clamped to the last finite bound.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(bucket_counts)
    if total <= 0:
        return 0.0
    rank = q * total
    cum = 0.0
    lo = 0.0
    for i, n in enumerate(bucket_counts):
        hi = bounds[i] if i < len(bounds) else bounds[-1]
        if n > 0 and cum + n >= rank:
            if i >= len(bounds):
                return float(hi)
            fraction = (rank - cum) / n
            return float(lo + (hi - lo) * max(0.0, min(1.0, fraction)))
        cum += n
        lo = hi
    return float(bounds[-1])


def _distribution_delta(
    cur: _HistogramState, prev: Optional[_HistogramState]
) -> Optional[Dict[str, object]]:
    """Per-window view of one histogram/timer family (``None`` when no
    observations landed this window)."""
    prev_count = prev.count if prev is not None else 0
    count = cur.count - prev_count
    if count <= 0:
        return None
    prev_sum = prev.sum if prev is not None else 0.0
    prev_buckets = (
        prev.bucket_counts if prev is not None else (0,) * len(cur.bucket_counts)
    )
    dbuckets = tuple(
        c - p for c, p in zip(cur.bucket_counts, prev_buckets)
    )
    dsum = cur.sum - prev_sum
    entry: Dict[str, object] = {
        "count": count,
        "sum": dsum,
        "mean": dsum / count,
    }
    for label, q in WINDOW_QUANTILES:
        entry[label] = bucket_quantile(cur.bounds, dbuckets, q)
    return entry


def snapshot_delta(
    prev: Optional[RegistrySnapshot],
    cur: RegistrySnapshot,
    window: Optional[int] = None,
) -> Dict[str, object]:
    """One time-series record between two snapshots (``prev`` may be
    ``None`` for the first window: deltas are then absolute values)."""
    record: Dict[str, object] = {
        "window": window,
        "ts": cur.ts,
        "counters": {},
        "gauges": dict(cur.gauges),
        "timers": {},
        "histograms": {},
    }
    counters = record["counters"]
    for key, value in cur.counters.items():
        base = prev.counters.get(key, 0.0) if prev is not None else 0.0
        delta = value - base
        if delta:
            counters[key] = delta
    for key, state in cur.histograms.items():
        entry = _distribution_delta(
            state, prev.histograms.get(key) if prev is not None else None
        )
        if entry is None:
            continue
        section = "timers" if key in cur.timer_keys else "histograms"
        record[section][key] = entry
    return record


class _WindowRows:
    """A registry's children in snapshot order, series keys computed
    once — what :func:`emit_window_record` walks every window."""

    __slots__ = ("generation", "counters", "gauges", "distributions")

    def __init__(
        self,
        registry: MetricsRegistry,
        previous: Optional["_WindowRows"] = None,
    ) -> None:
        #: The registry's child-creation count these rows reflect.
        self.generation = registry._generation
        # Mirror take_snapshot: sorted walk, keyed dicts (a later child
        # with the same series key wins), timers split out by type.
        counters: Dict[str, Counter] = {}
        gauges: Dict[str, Gauge] = {}
        histograms: Dict[str, HistogramInstrument] = {}
        timer_keys = set()
        children = sorted(
            (
                (kind, name, items, child)
                for (kind, name), family in registry._metrics.items()
                for items, child in family.items()
            ),
            key=lambda row: row[:3],
        )
        for _kind, name, items, child in children:
            key = instrument_key(name, items)
            if isinstance(child, HistogramInstrument):
                histograms[key] = child
                if isinstance(child, Timer):
                    timer_keys.add(key)
            elif isinstance(child, Counter):
                counters[key] = child
            elif isinstance(child, Gauge):
                gauges[key] = child
        if previous is not None:
            # A new child that takes a series key over from an older
            # one (a timer named like an existing histogram) continues
            # from what the old child last emitted, as the snapshot it
            # replaces in take_snapshot would.
            for key, old in previous.counters:
                new = counters[key]
                if new is not old:
                    new.emitted = old.emitted
            for key, old, _section, _edges in previous.distributions:
                new = histograms[key]
                if new is not old:
                    new.emitted_count = old.emitted_count
                    new.emitted_sum = old.emitted_sum
                    new.emitted_buckets = old.emitted_buckets
        self.counters = list(counters.items())
        self.gauges = list(gauges.items())
        #: ``(key, child, section, bucket upper edges)``; the overflow
        #: bucket's edge is clamped to the last finite bound, as in
        #: :func:`bucket_quantile`.
        self.distributions = [
            (
                key,
                child,
                "timers" if key in timer_keys else "histograms",
                tuple(child.bounds) + tuple(child.bounds)[-1:],
            )
            for key, child in histograms.items()
        ]


def _window_quantiles(
    edges: Tuple[float, ...],
    dbuckets: List[int],
    entry: Dict[str, object],
) -> None:
    """Set every :data:`WINDOW_QUANTILES` label of ``entry`` in one
    cumulative pass over ``dbuckets`` — the same arithmetic, and so the
    same values, as one :func:`bucket_quantile` call per quantile (the
    target ranks only grow, so each quantile's bucket is at or after
    the previous one's)."""
    total = sum(dbuckets)
    if total <= 0:
        for label, _q in WINDOW_QUANTILES:
            entry[label] = 0.0
        return
    finite = len(edges) - 1
    pending = iter(WINDOW_QUANTILES)
    label, q = next(pending)
    rank = q * total
    cum = 0.0
    lo = 0.0
    for i, (n, hi) in enumerate(zip(dbuckets, edges)):
        if n > 0:
            while cum + n >= rank:
                if i >= finite:
                    entry[label] = float(hi)
                else:
                    fraction = (rank - cum) / n
                    entry[label] = float(
                        lo + (hi - lo) * max(0.0, min(1.0, fraction))
                    )
                label, q = next(pending, (None, None))
                if label is None:
                    return
                rank = q * total
        cum += n
        lo = hi
    while label is not None:
        entry[label] = float(edges[-1])
        label, _q = next(pending, (None, None))


def emit_window_record(
    registry: MetricsRegistry, window: int
) -> Optional[Dict[str, object]]:
    """Append the delta record for ``window`` to
    ``registry.window_series`` and return it (``None`` when the
    registry is disabled — strictly free on the no-op path).

    The record equals ``snapshot_delta(prev, take_snapshot(registry))``
    against the previous window's snapshot, but nothing is snapshotted:
    every child keeps the values the last record was taken against, so
    an unchanged instrument costs one comparison, and only distributions
    that moved compute bucket deltas and quantiles.  The child list is
    sorted and keyed once, and again only after a new child appears.
    """
    if not registry.enabled:
        return None
    ts = time.perf_counter() - registry.epoch
    timers: Dict[str, Dict[str, object]] = {}
    histograms: Dict[str, Dict[str, object]] = {}
    sections = {"timers": timers, "histograms": histograms}
    counters: Dict[str, float] = {}
    with registry._lock:
        rows = registry._window_rows
        if rows is None or rows.generation != registry._generation:
            rows = registry._window_rows = _WindowRows(registry, rows)
        for key, child in rows.counters:
            value = child.value
            delta = value - child.emitted
            if delta:
                counters[key] = delta
                child.emitted = value
        gauges = {key: child.value for key, child in rows.gauges}
        for key, child, section, edges in rows.distributions:
            if child.count == child.emitted_count:
                continue
            with child._lock:
                count = child.count
                total = child.sum
                buckets = list(child.bucket_counts)
            dcount = count - child.emitted_count
            dsum = total - child.emitted_sum
            dbuckets = [
                c - p for c, p in zip(buckets, child.emitted_buckets)
            ]
            child.emitted_count = count
            child.emitted_sum = total
            child.emitted_buckets = buckets
            if dcount <= 0:
                continue
            entry: Dict[str, object] = {
                "count": dcount,
                "sum": dsum,
                "mean": dsum / dcount,
            }
            _window_quantiles(edges, dbuckets, entry)
            sections[section][key] = entry
        record = {
            "window": window,
            "ts": ts,
            "counters": counters,
            "gauges": gauges,
            "timers": timers,
            "histograms": histograms,
        }
        registry.window_series.append(record)
    return record
