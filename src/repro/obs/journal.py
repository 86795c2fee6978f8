"""JSON-lines event journal — the pipeline's flight recorder.

While metrics answer "how much", the journal answers "what happened,
in order": one JSON object per line for every install / ack / retry /
fault / decode / recalibration event a monitoring run produces, each
stamped with a **monotonic sequence id** (gapless from 0), the window
index and the monitor id where applicable, plus a wall-clock-free
monotonic timestamp.  Because decode events carry the full per-window
accounting and the ``run_end`` event the run totals,
``repro replay <journal>`` can reconstruct the run's ``SystemReport``
**bit-identically** from the journal alone (see
:mod:`repro.streams.replay`) — which makes the journal verifiable: a
tampered or truncated journal fails replay's consistency checks.

The plumbing mirrors the metrics registry: a module-level *current*
journal defaults to a shared no-op :class:`NullJournal`, so
instrumented code pays one function call and one attribute check when
journaling is off::

    from repro.obs import EventJournal, use_journal

    with use_journal(EventJournal("run.journal")) as journal:
        system.run(live, window_width=w)

Event record shape::

    {"seq": 17, "ts": 3.052, "event": "decode", "window": 4, ...}

``ts`` is seconds since the journal was opened (monotonic clock).
Events are flushed line-by-line so concurrent readers (``repro top``)
always see a prefix of whole records.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from typing import Dict, Iterator, List, Optional, TextIO, Union

__all__ = [
    "EventJournal",
    "BufferJournal",
    "NullJournal",
    "NULL_JOURNAL",
    "get_journal",
    "set_journal",
    "use_journal",
    "read_journal",
]

#: Event types a monitoring run emits (documented contract; the journal
#: itself accepts any type).
EVENT_TYPES = (
    "run_start",      # run configuration (monitors, algorithm, faults...)
    "rebuild",        # Control Center (re)built the partitioning function
    "install",        # one install transmission (fields: retry, acked)
    "fault.crash",    # a Monitor crash-and-restarted
    "fault.drop",     # an upstream wire copy was lost
    "fault.duplicate",  # the network created an extra wire copy
    "fault.delay",    # a delivered copy will arrive late
    "decode",         # one window decoded (full WindowReport fields)
    "drift",          # drift detector score for one window (adaptive)
    "recalibration",  # drift-triggered rebuild (adaptive)
    "run_end",        # run totals (SystemReport aggregate fields)
    # lifecycle tracing (emitted when a LifecycleTracer is scoped; see
    # repro.obs.lifecycle — fields carry the (monitor, window, version,
    # copy) trace id):
    "trace.sent",       # one wire transmission left a Monitor
    "trace.duplicated",  # this copy exists only by network duplication
    "trace.delayed",    # the copy will arrive `delay` windows late
    "trace.reordered",  # the copy was shuffled in its arrival window
    "trace.delivered",  # the copy reached the Control Center
    "trace.closed",     # final outcome + age_windows (closes the trace)
    # SLO alerting (emitted when an SLOEngine is scoped; see
    # repro.obs.slo):
    "alert.fired",      # a rule went out of bounds this window
    "alert.resolved",   # a firing rule came back in bounds
    # serving layer (see repro.serving):
    "shard.prefetch",    # one shard worker's prefetch pass (windows, bytes)
    "tenant.admitted",   # admission control accepted a tenant
    "tenant.rejected",   # admission control turned a tenant away (reason)
    "tenant.over_budget",  # a tenant's run exceeded its declared bytes
    "tenant.report",     # one tenant's run summary (windows, bytes, error)
    # cross-process telemetry (see repro.obs.crossproc): events captured
    # in a shard worker's BufferJournal are re-sequenced into the parent
    # journal in deterministic (shard, seq) order, namespaced
    # "shard.worker.<original event>" and stamped with shard /
    # worker_seq / worker_ts fields.  Replay ignores them (they carry
    # no decode state), so `repro replay` stays byte-identical:
    "shard.worker.batch",      # one monitor's prefetch build inside a worker
    "shard.worker.resources",  # a worker's per-batch CPU/RSS/GC sample
    "shard.fanin",       # one window's k-way shard merge at the center
    "shard.summary",     # per-shard resource totals (emitted at close())
)


#: One encoder for every journal line: ``_ENCODER.encode(record)`` is
#: byte-for-byte ``json.dumps(record, sort_keys=True)``, without
#: building a fresh encoder per event.
_ENCODER = json.JSONEncoder(sort_keys=True)


class EventJournal:
    """Append-only JSON-lines event sink with monotonic sequence ids."""

    enabled = True

    def __init__(self, sink: Union[str, TextIO]) -> None:
        if isinstance(sink, str):
            self._file: TextIO = open(sink, "w")
            self._owns_file = True
            self.path: Optional[str] = sink
        else:
            self._file = sink
            self._owns_file = False
            self.path = getattr(sink, "name", None)
        self._lock = threading.Lock()
        self._seq = 0
        self._epoch = time.perf_counter()
        #: Wall-clock anchor (ISO-8601, UTC) for the monotonic ``ts``
        #: offsets — lets journals from different runs be time-aligned
        #: (stamped onto the ``run_start`` event by the run loop).
        self.wall_start = datetime.now(timezone.utc).isoformat()

    def emit(self, event: str, **fields) -> int:
        """Write one event; returns its sequence id."""
        with self._lock:
            seq = self._seq
            self._seq += 1
            record = {
                "seq": seq,
                "ts": round(time.perf_counter() - self._epoch, 6),
                "event": event,
            }
            record.update(fields)
            self._file.write(_ENCODER.encode(record) + "\n")
            self._file.flush()
        return seq

    @property
    def events_written(self) -> int:
        return self._seq

    def close(self) -> None:
        if self._owns_file and not self._file.closed:
            self._file.close()

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BufferJournal:
    """An in-memory journal: same ``emit`` contract as
    :class:`EventJournal`, records appended to :attr:`events` instead
    of a file.

    This is the worker-side half of cross-process journal capture
    (:mod:`repro.obs.crossproc`): a shard worker scopes a
    ``BufferJournal``, its instrumented code emits events normally, and
    the buffered records ride back over the IPC pipe (they are plain
    JSON-safe dicts) to be re-sequenced into the parent's real
    :class:`EventJournal` under the ``shard.worker.*`` namespace.
    Sequence ids are gapless from 0 *within this buffer*; ``ts`` is
    seconds since the buffer was created (monotonic clock).
    """

    enabled = True
    path = None

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._epoch = time.perf_counter()
        self.wall_start = datetime.now(timezone.utc).isoformat()
        #: Buffered event records (the same dict shape
        #: :meth:`EventJournal.emit` writes as JSON lines).
        self.events: List[Dict] = []

    def emit(self, event: str, **fields) -> int:
        """Buffer one event; returns its sequence id."""
        with self._lock:
            seq = self._seq
            self._seq += 1
            record = {
                "seq": seq,
                "ts": round(time.perf_counter() - self._epoch, 6),
                "event": event,
            }
            record.update(fields)
            self.events.append(record)
        return seq

    @property
    def events_written(self) -> int:
        return self._seq

    def close(self) -> None:
        pass

    def __enter__(self) -> "BufferJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullJournal:
    """The disabled journal: ``emit`` is a no-op."""

    enabled = False
    path = None
    wall_start = None

    def emit(self, event: str, **fields) -> int:
        return -1

    def close(self) -> None:
        pass


#: The process-wide disabled journal (the default sink).
NULL_JOURNAL = NullJournal()

_current: Union[EventJournal, NullJournal] = NULL_JOURNAL
_current_lock = threading.Lock()


def get_journal() -> Union[EventJournal, NullJournal]:
    """The journal instrumented code currently reports into."""
    return _current


def set_journal(
    journal: Optional[Union[EventJournal, NullJournal]]
) -> Union[EventJournal, NullJournal]:
    """Install ``journal`` as the current sink (``None`` disables);
    returns the previous one."""
    global _current
    with _current_lock:
        previous = _current
        _current = journal if journal is not None else NULL_JOURNAL
    return previous


@contextmanager
def use_journal(
    journal: Optional[Union[EventJournal, NullJournal]]
) -> Iterator[Union[EventJournal, NullJournal]]:
    """Scope ``journal`` as the current sink for a ``with`` block; the
    journal is closed on exit when one was given."""
    previous = set_journal(journal)
    try:
        yield get_journal()
    finally:
        set_journal(previous)
        if journal is not None:
            journal.close()


def read_journal(path: str, strict: bool = True) -> List[Dict]:
    """Parse a journal file back into event records, enforcing the
    flight-recorder invariants: every line is a JSON object with
    ``seq``/``event``, and sequence ids are gapless from 0 (a gap means
    a truncated or tampered journal).

    ``strict=False`` is the live-tail mode (``repro top`` polling a
    journal still being written): the first malformed line — typically
    a partially flushed final record — ends the read instead of
    raising.
    """
    events: List[Dict] = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if not strict:
                    break
                raise ValueError(
                    f"{path}:{lineno}: not a journal line ({exc})"
                )
            if not isinstance(record, dict) or "event" not in record:
                if not strict:
                    break
                raise ValueError(
                    f"{path}:{lineno}: journal records need an 'event' field"
                )
            if record.get("seq") != len(events):
                if not strict:
                    break
                raise ValueError(
                    f"{path}:{lineno}: sequence gap — expected seq "
                    f"{len(events)}, got {record.get('seq')!r} "
                    f"(truncated or tampered journal?)"
                )
            events.append(record)
    return events
