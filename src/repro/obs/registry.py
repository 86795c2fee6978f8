"""Metrics registry: labeled counter/gauge/histogram/timer families.

The observability layer the rest of the package reports into.  Design
constraints, in order:

1. **Zero overhead when disabled.**  The module-level *current*
   registry defaults to a :class:`NullRegistry` whose lookups hand back
   shared no-op instruments — instrumented hot paths pay one function
   call and one dictionary-free method dispatch, nothing else.  No
   timestamps are read, no locks taken, nothing allocated per call.
2. **No dependencies.**  Plain stdlib (``threading``, ``time``); the
   exporters in :mod:`repro.obs.export` turn a registry into
   JSON-lines, CSV or Prometheus text.
3. **Thread safety.**  Monitors may be driven from worker threads;
   every instrument child carries its own lock, so two threads updating
   different instruments never contend, and two threads updating the
   same counter serialize on that counter alone.  The registry-wide
   lock guards only family creation, span recording and the snapshot
   series.

Instrument kinds follow the conventional semantics:

* :class:`Counter` — monotonically nondecreasing (``inc`` rejects
  negative deltas); e.g. ``channel.upstream.bytes``.
* :class:`Gauge` — a value that goes both ways; e.g. the last window's
  drift score.
* :class:`HistogramInstrument` — distribution of observations with
  count/sum/min/max plus cumulative buckets (Prometheus-style
  ``le`` bounds); e.g. per-window error.
* :class:`Timer` — a histogram of durations measured on the monotonic
  clock (:func:`time.perf_counter`), with a ``time()`` context
  manager.

Families are keyed by ``(kind, name)``; children by their sorted label
items, so ``reg.counter("x", a="1", b="2")`` and
``reg.counter("x", b="2", a="1")`` are the same child.  A flat dict
keyed by the labels *as passed* answers repeat lookups before any
sorting or locking, so instrumented code need not cache handles.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "HistogramInstrument",
    "Timer",
    "SpanRecord",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
]

#: Default histogram bucket upper bounds — a decade-spanning log grid
#: that covers both sub-millisecond timings and multi-megabyte sizes.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0,
    1e3, 1e4, 1e5, 1e6, 1e7,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically nondecreasing count."""

    __slots__ = ("name", "labels", "value", "_lock", "emitted")

    def __init__(self, name: str, labels: LabelItems, lock: threading.Lock):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = lock
        #: The value the last per-window record was taken against
        #: (see :func:`repro.obs.snapshots.emit_window_record`).
        self.emitted = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can move in either direction."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: LabelItems, lock: threading.Lock):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class HistogramInstrument:
    """Distribution summary: count, sum, min, max, cumulative buckets."""

    __slots__ = (
        "name", "labels", "count", "sum", "min", "max",
        "bounds", "bucket_counts", "_lock",
        "emitted_count", "emitted_sum", "emitted_buckets",
    )

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        lock: threading.Lock,
        bounds: Tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # trailing +inf
        self._lock = lock
        #: The count / sum / bucket counts the last per-window record
        #: was taken against (see
        #: :func:`repro.obs.snapshots.emit_window_record`).
        self.emitted_count = 0
        self.emitted_sum = 0.0
        self.emitted_buckets = [0] * len(self.bucket_counts)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    return
            self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Timer(HistogramInstrument):
    """A histogram of monotonic-clock durations, in seconds."""

    __slots__ = ()

    @contextmanager
    def time(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - start)


class SpanRecord:
    """One finished tracing span (see :mod:`repro.obs.spans`)."""

    __slots__ = ("name", "parent", "start", "duration", "payload", "thread")

    def __init__(
        self,
        name: str,
        parent: Optional[str],
        start: float,
        duration: float,
        payload: Dict[str, object],
        thread: str,
    ):
        self.name = name
        self.parent = parent
        self.start = start
        self.duration = duration
        self.payload = payload
        self.thread = thread


class MetricsRegistry:
    """A live collection of labeled instrument families plus spans."""

    enabled = True

    _KINDS = {
        "counter": Counter,
        "gauge": Gauge,
        "histogram": HistogramInstrument,
        "timer": Timer,
    }

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, str], Dict[LabelItems, object]] = {}
        #: ``(kind, name, label items as passed)`` -> child: the lookup
        #: fast path, checked before the label sort and the lock.
        self._lookups: Dict[Tuple[str, str, tuple], object] = {}
        self._spans: List[SpanRecord] = []
        #: Origin of the registry's span timeline (monotonic clock).
        self.epoch = time.perf_counter()
        #: Per-window snapshot-delta records, appended by
        #: :func:`repro.obs.snapshots.emit_window_record` (one per
        #: decoded window of a monitoring run).
        self.window_series: List[Dict[str, object]] = []
        #: Children created so far; the per-window record rebuilds its
        #: child list when this moves.
        self._generation = 0
        #: Every child in snapshot order with its series key, as of
        #: ``_generation`` (built by ``emit_window_record``).
        self._window_rows: Optional[object] = None

    # -- instrument lookup -------------------------------------------------
    def _instrument(self, kind: str, name: str, labels: Dict[str, object]):
        passed = (kind, name, tuple(labels.items()))
        try:
            child = self._lookups.get(passed)
        except TypeError:  # an unhashable label value
            child = None
        if child is not None:
            return child
        items = _label_items(labels)
        with self._lock:
            family = self._metrics.setdefault((kind, name), {})
            child = family.get(items)
            if child is None:
                # Each child gets its own lock: hot instruments updated
                # from worker threads must not serialize on unrelated
                # families (or on family creation).
                child = self._KINDS[kind](name, items, threading.Lock())
                family[items] = child
                self._generation += 1
            # Only all-string label sets take the fast path: 1, 1.0 and
            # True hash and compare equal but label as "1", "1.0" and
            # "True".
            if all(type(v) is str for v in labels.values()):
                self._lookups[passed] = child
            return child

    def counter(self, name: str, **labels) -> Counter:
        return self._instrument("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._instrument("gauge", name, labels)

    def histogram(self, name: str, **labels) -> HistogramInstrument:
        return self._instrument("histogram", name, labels)

    def timer(self, name: str, **labels) -> Timer:
        return self._instrument("timer", name, labels)

    # -- spans -------------------------------------------------------------
    def record_span(self, record: SpanRecord) -> None:
        with self._lock:
            self._spans.append(record)

    @property
    def spans(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._spans)

    # -- introspection -----------------------------------------------------
    def instruments(self) -> Iterator[Tuple[str, object]]:
        """Yield ``(kind, instrument)`` for every child, sorted by
        (kind, name, labels) for deterministic export."""
        with self._lock:
            snapshot = [
                (kind, name, items, child)
                for (kind, name), family in self._metrics.items()
                for items, child in family.items()
            ]
        for kind, _name, _items, child in sorted(
            snapshot, key=lambda row: (row[0], row[1], row[2])
        ):
            yield kind, child

    def get(self, kind: str, name: str, **labels):
        """The existing instrument, or ``None`` (never creates)."""
        family = self._metrics.get((kind, name))
        if family is None:
            return None
        return family.get(_label_items(labels))


class _NullInstrument:
    """Accepts every instrument method as a no-op."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @contextmanager
    def time(self) -> Iterator[None]:
        yield


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The disabled registry: every lookup returns a shared no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def _instrument(self, kind, name, labels):
        return _NULL_INSTRUMENT

    def record_span(self, record: SpanRecord) -> None:
        pass


#: The process-wide disabled registry (instrumentation's default sink).
NULL_REGISTRY = NullRegistry()

_current: MetricsRegistry = NULL_REGISTRY
_current_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The registry instrumented code currently reports into."""
    return _current


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` as the current sink (``None`` disables);
    returns the previous one."""
    global _current
    with _current_lock:
        previous = _current
        _current = registry if registry is not None else NULL_REGISTRY
    return previous


@contextmanager
def use_registry(registry: Optional[MetricsRegistry]) -> Iterator[MetricsRegistry]:
    """Scope ``registry`` as the current sink for a ``with`` block."""
    previous = set_registry(registry)
    try:
        yield get_registry()
    finally:
        set_registry(previous)
