"""Span recording around each layer's entry points, for the traced pass.

The program has no spans of its own on the hot path yet, so the
benchmark wraps the entry points it calls into — module functions and
methods the pipeline looks up at call time — for the duration of one
traced pass, and restores them afterwards.  Each span records its name,
start, end, parent span and the window (request) it belongs to; a
layer's self time is its spans' durations minus the time their child
spans cover.  Spans stay in memory and are written out when the pass
ends.

Sharded worker processes are not traced: their build and encode work
shows up as the parent's ``prefetch`` self time.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import defaultdict
from contextlib import ExitStack, contextmanager, nullcontext
from time import perf_counter
from typing import Dict, Iterator, List


#: ``module:qualname`` entry points wrapped as plain spans, with the
#: layer name their time is booked under.
SPANS = (
    # streams.windows: splitting the live trace across monitors.
    ("repro.streams.tuples:Trace.split", "segment"),
    # control plane: compiling an installed function on a monitor.
    ("repro.streams.monitor:Monitor.install_function", "install"),
    # core.wire: encode at the monitor, parse/merge at the center.
    ("repro.streams.monitor:encode_histogram_v2", "wire.encode"),
    ("repro.streams.monitor:encode_histograms_v2", "wire.encode"),
    ("repro.streams.control_center:merge_wire", "wire.decode"),
    ("repro.streams.control_center:WireHistogram", "wire.decode"),
    ("repro.core.wire:WireHistogram.to_histogram", "wire.decode"),
    ("repro.serving.sharded:merge_views", "wire.decode"),
    # core.compiled estimate and core.errors scoring at the center.
    ("repro.core.compiled:CompiledEstimator.estimate", "estimate"),
    ("repro.streams.control_center:ControlCenter.error", "score"),
    ("repro.streams.channel:Channel.send_function", "channel"),
    # streams.query: exact ground truth, per window or batched for the
    # whole run by the serving prefetch.
    ("repro.streams.system:exact_group_counts", "truth"),
    ("repro.serving.sharded:exact_group_counts_batched", "truth"),
    ("repro.streams.system:MonitoringSystem._ground_truth", "truth"),
    ("repro.serving.sharded:ShardedMonitoringSystem._ground_truth", "truth"),
    ("repro.streams.recalibrate:BucketDriftDetector.observe", "drift.detect"),
    # streams.faults: crash checks, fault-plan draws, reorders.
    ("repro.streams.faults:FaultModel.crashes", "faults"),
    ("repro.streams.faults:FaultModel.plan_decisions", "faults"),
    ("repro.streams.faults:FaultModel.apply_reorder", "faults"),
    # serving: the prefetch pass (shared-memory fill, worker build and
    # encode, result fan-in, batched ground truth) and the per-window
    # replay of its messages.
    ("repro.serving.sharded:ShardedMonitoringSystem._prefetch", "prefetch"),
    ("repro.serving.sharded:ShardedMonitoringSystem._partition_jobs",
     "prefetch"),
    # obs: the per-window time-series record, the report field dicts
    # the journal and the SLO engine consume, and the SLO signals.
    ("repro.streams.system:emit_window_record", "window_record"),
    ("repro.streams.system:asdict", "report_dict"),
    ("repro.streams.system:quantile", "slo"),
    ("repro.serving.sharded:ShardedMonitoringSystem._window_signals", "slo"),
)

#: Lifecycle-tracer methods the run loop, channel and decoder call.
TRACER_METHODS = (
    "sent", "duplicated", "dropped", "delayed", "reordered", "delivered",
    "close", "expire_open", "drain_window_ages",
)


def _lookup(path: str):
    """``(owner, attribute)`` for ``module:qualname``.  An entry point
    the program no longer defines there raises, so a moved layer stops
    the traced run instead of silently reading zero."""
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for name in outer:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise LookupError(f"{path}: no such entry point")
    return owner, attr


def root(recorder, name: str):
    """A top-level span, or nothing when the pass is not traced."""
    return nullcontext() if recorder is None else recorder.span(name)


class Recorder:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.windows: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.reused_fractions: List[float] = []
        self._sessions: List[object] = []
        self.window = -1
        self._stack: List[int] = []
        self._telemetry = None

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.windows.append(self.window)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    # -- probes ------------------------------------------------------------
    def attach_telemetry(self, tel) -> None:
        """Trace the pass's own observability objects (instance-level,
        so nothing outlives the pass)."""
        self._telemetry = tel
        if tel is None:
            return
        for name in ("counter", "gauge", "histogram", "timer"):
            setattr(tel.registry, name,
                    self.wrap("metrics", getattr(tel.registry, name)))
        tel.journal.emit = self.wrap("journal", tel.journal.emit)
        tel.slo.observe = self.wrap("slo", tel.slo.observe)
        tel.slo.finish = self.wrap("slo", tel.slo.finish)
        for name in TRACER_METHODS:
            setattr(tel.tracer, name,
                    self.wrap("lifecycle", getattr(tel.tracer, name)))

    @contextmanager
    def probes(self) -> Iterator["Recorder"]:
        """Wrap every entry point in :data:`SPANS` and the counting
        wrappers below for the duration of the block."""
        custom = {
            "repro.streams.windows:TumblingWindows.segment": self._segment,
            "repro.streams.monitor:Monitor.process_window": self._monitor,
            "repro.streams.monitor:Monitor.process_windows": self._monitor,
            "repro.streams.channel:Channel.send_histogram": self._channel,
            "repro.streams.control_center:ControlCenter.decode_window":
                self._decode,
            "repro.streams.control_center:ControlCenter.rebuild_function":
                self._rebuild,
            "repro.streams.control_center:new_session": self._session,
            "repro.streams.control_center:build": self._build,
            "repro.streams.faults:InstallScheduler.tick": self._tick,
        }
        replacements = [
            (path, lambda fn, name=name: self.wrap(name, fn))
            for path, name in SPANS
        ] + list(custom.items())
        with ExitStack() as stack:
            for path, make in replacements:
                owner, attr = _lookup(path)
                original = vars(owner)[attr]
                setattr(owner, attr, make(getattr(owner, attr)))
                stack.callback(setattr, owner, attr, original)
            yield self

    # Counting wrappers: each records a span plus the counts the layer
    # metrics divide by.
    def _segment(self, segment):
        def traced(windows, trace):
            with self.span("segment"):
                return iter(list(segment(windows, trace)))

        return traced

    def _monitor(self, process):
        def traced(monitor, window_indices, *args, **kwargs):
            # process_windows takes a sequence, process_window one index.
            self.counts["monitor.windows"] += (
                len(window_indices) if hasattr(window_indices, "__len__")
                else 1
            )
            with self.span("monitor"):
                return process(monitor, window_indices, *args, **kwargs)

        return traced

    def _channel(self, send_histogram):
        def traced(channel, message, *args, **kwargs):
            before = len(channel.messages)
            with self.span("channel"):
                deliveries = send_histogram(channel, message, *args, **kwargs)
            sent = len(channel.messages) - before
            self.counts["channel.copies_dropped"] += sent - len(deliveries)
            self.counts["channel.copies_duplicated"] += max(0, sent - 1)
            self.counts["channel.copies_delayed"] += sum(
                1 for d in deliveries if d.delay
            )
            return deliveries

        return traced

    def _decode(self, decode_window):
        def traced(center, messages, *args, **kwargs):
            self.counts["decode.messages"] += len(messages)
            self.counts["decode.windows"] += 1
            with self.span("decode"):
                return decode_window(center, messages, *args, **kwargs)

        return traced

    def _rebuild(self, rebuild_function):
        def traced(center, *args, **kwargs):
            builds = self.counts["build.calls"]
            opened = len(self._sessions)
            self.counts["rebuild.calls"] += 1
            with self.span("rebuild"):
                function = rebuild_function(center, *args, **kwargs)
            if self.counts["build.calls"] == builds:
                self.counts["rebuild.cache_hits"] += 1
            for session in self._sessions[opened:]:
                self.reused_fractions.append(
                    session.stats()["reused_fraction"]
                )
            return function

        return traced

    def _session(self, new_session):
        def traced(*args, **kwargs):
            session = new_session(*args, **kwargs)
            self._sessions.append(session)
            return session

        return traced

    def _build(self, build):
        def traced(*args, **kwargs):
            self.counts["build.calls"] += 1
            with self.span("build"):
                return build(*args, **kwargs)

        return traced

    def _tick(self, tick):
        # The install scheduler runs first in every window, so it also
        # marks which window the spans after it serve.
        def traced(scheduler, window, *args, **kwargs):
            self.window = window
            with self.span("install"):
                return tick(scheduler, window, *args, **kwargs)

        return traced

    # -- results -----------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        totals: Dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            totals[name] += self.ends[i] - self.starts[i] - covered[i]
        return totals

    def durations(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end in zip(self.names, self.starts, self.ends):
            totals[name] += end - start
        return totals

    def coverage(self) -> float:
        """Share of the ``run`` span's time that a layer span covers."""
        run = self.names.index("run")
        covered = sum(
            self.ends[i] - self.starts[i]
            for i, parent in enumerate(self.parents)
            if parent == run
        )
        return covered / (self.ends[run] - self.starts[run])

    def layer_metrics(self, traced) -> Dict[str, tuple]:
        self_s = self.self_times()
        total_s = self.durations()
        counts = self.counts
        windows = counts["monitor.windows"]
        decodes = counts["decode.windows"]
        rebuilds = counts["rebuild.calls"]
        rebuild_s = [
            end - start
            for name, start, end in zip(self.names, self.starts, self.ends)
            if name == "rebuild"
        ]
        metrics = {
            f"{name}.self_s": (self_s.get(name, 0.0), "s")
            for name in (
                "segment", "monitor", "wire.encode", "wire.decode",
                "estimate", "channel", "decode", "score", "rebuild",
                "build", "install", "truth", "drift.detect", "prefetch",
                "faults", "journal", "lifecycle", "slo", "window_record",
                "report_dict", "metrics",
            )
        }
        metrics["system.self_s"] = (self_s["run"], "s")
        metrics.update({
            "monitor.calls": (windows, "count"),
            "monitor.us_per_window": (
                1e6 * total_s.get("monitor", 0.0) / windows if windows
                else 0.0, "us",
            ),
            "channel.copies_dropped": (
                counts["channel.copies_dropped"], "count"),
            "channel.copies_duplicated": (
                counts["channel.copies_duplicated"], "count"),
            "channel.copies_delayed": (
                counts["channel.copies_delayed"], "count"),
            "decode.us_per_window": (
                1e6 * total_s.get("decode", 0.0) / decodes if decodes
                else 0.0, "us",
            ),
            "decode.messages_per_window": (
                counts["decode.messages"] / decodes if decodes else 0.0,
                "count",
            ),
            "rebuild.ms_p50": (
                1e3 * statistics.median(rebuild_s) if rebuild_s else 0.0,
                "ms",
            ),
            "rebuild.cache_hit_ratio": (
                counts["rebuild.cache_hits"] / rebuilds if rebuilds else 0.0,
                "ratio",
            ),
            "incremental.reused_fraction": (
                sum(self.reused_fractions) / len(self.reused_fractions)
                if self.reused_fractions else 0.0, "ratio",
            ),
            "trace.coverage": (self.coverage(), "ratio"),
        })
        metrics.update(self._serving_metrics(traced))
        metrics.update(self._obs_metrics())
        return metrics

    def _serving_metrics(self, traced) -> Dict[str, tuple]:
        hits = traced.extra.get("prefetch_hits", 0)
        misses = traced.extra.get("prefetch_misses", 0)
        tel = self._telemetry
        imbalance = cpu_s = 0.0
        if tel is not None:
            tuples, cpu = [], []
            for _kind, inst in tel.registry.instruments():
                if inst.name == "serving.shard.tuples":
                    tuples.append(inst.value)
                elif inst.name == "serving.shard.cpu_seconds":
                    cpu.append(inst.value)
            if tuples:
                imbalance = max(tuples) / (sum(tuples) / len(tuples))
            cpu_s = sum(cpu)
        return {
            "prefetch.hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "shard.imbalance": (imbalance, "ratio"),
            "shard.worker_cpu_s": (cpu_s, "s"),
        }

    def _obs_metrics(self) -> Dict[str, tuple]:
        tel = self._telemetry
        if tel is None:
            return {"journal.events": (0.0, "count"),
                    "journal.bytes": (0.0, "bytes")}
        return {
            "journal.events": (tel.journal.events_written, "count"),
            "journal.bytes": (
                len(tel.sink.getvalue().encode("utf-8")), "bytes"),
        }

    def write(self, path) -> None:
        with open(path, "w") as out:
            for i, name in enumerate(self.names):
                out.write(json.dumps({
                    "id": i,
                    "name": name,
                    "parent": self.parents[i],
                    "window": self.windows[i],
                    "start": self.starts[i],
                    "end": self.ends[i],
                }) + "\n")
