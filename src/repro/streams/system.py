"""End-to-end monitoring system simulation (paper Figure 1).

Wires together the full pipeline on a single machine:

1. the Control Center builds a partitioning function from the history
   portion of a trace and installs it on every Monitor (downstream
   bytes are accounted);
2. the trace's remainder is split across the Monitors; for each
   tumbling window every Monitor ships its histogram (upstream bytes);
3. the Control Center merges, decodes and scores each window against
   the exact grouped aggregation.

The link between the two sides is not assumed perfect.  Passing a
:class:`~.faults.FaultModel` makes the channel drop, duplicate, delay
and reorder histograms, lose function installs, and crash Monitors;
the pipeline then runs its recovery story — install retries with
capped exponential backoff, decode-side deduplication, stale-version
quarantine/rescale — and every :class:`WindowReport` carries the
degradation accounting (``monitors_reporting``, ``duplicates_dropped``,
``stale_messages``, ``late_messages``).

Delivery semantics are explicit rather than implicitly exactly-once:

* upstream histograms are at-least-zero-times (drop) and
  at-least-once under duplication — the Control Center dedups by
  ``(monitor, window_index, function_version)``;
* the decode watermark is one window: window ``w`` is decoded at tick
  ``w`` from the copies that arrived by then; late copies are counted
  (``late_messages``) and discarded;
* a window whose histograms were *all* lost is still **reported** — as
  a fully degraded window with ``monitors_reporting == 0`` and
  all-zero estimates — never silently skipped.  The only skipped tick
  is one where no Monitor even had a window slot, which cannot happen
  with tumbling windows over the longest share (the guard is explicit
  anyway);
* downstream installs are at-least-once: version-stamped, idempotent,
  retried by the :class:`~.faults.InstallScheduler` until acked.

The output is a list of per-window reports plus the run's channel byte
totals — the accuracy-per-bit story of the paper, measured rather than
asserted.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import PenaltyMetric
from ..core.groups import GroupTable
from ..core.wire import WIRE_FORMATS
from ..obs import (
    Alert,
    emit_window_record,
    get_journal,
    get_registry,
    get_slo_engine,
    get_tracer,
    span,
)
from ..obs.slo import quantile
from .channel import Channel
from .control_center import ControlCenter, DecodedWindow
from .faults import Delivery, FaultModel, InstallScheduler
from .monitor import Monitor
from .query import exact_group_counts
from .tuples import Trace
from .windows import TumblingWindows

__all__ = ["WindowReport", "SystemReport", "MonitoringSystem"]

#: Sentinel distinguishing "no faults passed to run()" from an explicit
#: ``faults=None`` override of the system-level default.
_UNSET = object()


@dataclass(frozen=True)
class WindowReport:
    """Accuracy, cost and degradation accounting for one decoded
    window."""

    window_index: int
    tuples: int
    error: float
    histogram_bytes: int
    raw_bytes: int
    nonzero_buckets: int
    #: Distinct monitors whose histograms reached this window's decode.
    monitors_reporting: int = 0
    #: Redundant deliveries discarded by decode-side deduplication.
    duplicates_dropped: int = 0
    #: Deliveries quarantined for carrying a stale function version.
    stale_messages: int = 0
    #: Deliveries that arrived after their window's decode watermark.
    late_messages: int = 0
    #: Online quality signals (see :mod:`repro.obs.quality`), filled
    #: when metrics or the event journal were live during the run;
    #: ``0.0`` otherwise.
    coverage: float = 0.0
    spill_fraction: float = 0.0
    occupancy_entropy: float = 0.0
    occupancy_skew: float = 0.0
    drift_score: float = 0.0


@dataclass
class SystemReport:
    """Aggregate outcome of a monitoring run."""

    windows: List[WindowReport] = field(default_factory=list)
    #: Channel bytes sent since the previous run() on the same system
    #: ended (the first run also carries the training installs).
    function_bytes: int = 0
    upstream_bytes: int = 0
    raw_bytes: int = 0
    #: Monitor crash-and-restart events during the run.
    monitor_crashes: int = 0
    #: Deliveries still in flight when the run ended (delayed past the
    #: last window; never decoded).
    expired_messages: int = 0
    #: SLO alert history (empty unless an
    #: :class:`~repro.obs.slo.SLOEngine` was scoped during the run;
    #: rebuilt bit-identically from the journal by ``repro replay``).
    alerts: List[Alert] = field(default_factory=list)

    @property
    def mean_error(self) -> float:
        if not self.windows:
            return 0.0
        return float(np.mean([w.error for w in self.windows]))

    @property
    def compression_ratio(self) -> float:
        """Raw-stream bytes over histogram bytes (higher is better).

        ``0.0`` when nothing was sent — an idle system compressed
        nothing, and ``0.0`` keeps downstream arithmetic finite."""
        sent = self.upstream_bytes + self.function_bytes
        return self.raw_bytes / sent if sent else 0.0


class MonitoringSystem:
    """A Control Center plus a fleet of Monitors over one channel."""

    #: Control-center implementation to instantiate — subclasses swap
    #: in specialized decoders (the serving layer's fan-in center).
    control_center_class = ControlCenter

    def __init__(
        self,
        table: GroupTable,
        metric: PenaltyMetric,
        num_monitors: int = 4,
        algorithm: str = "lpm_greedy",
        budget: int = 100,
        cache_size: int = 8,
        stale_policy: str = "strict",
        incremental: bool = False,
        faults: Optional[FaultModel] = None,
        max_install_attempts: int = 64,
        parallel: int = 1,
        wire_format: str = "v2",
        shared_cache=None,
        **builder_options,
    ) -> None:
        if num_monitors < 1:
            raise ValueError(f"need at least one monitor, got {num_monitors}")
        if wire_format not in WIRE_FORMATS:
            raise ValueError(
                f"wire_format must be one of {WIRE_FORMATS}, "
                f"got {wire_format!r}"
            )
        if max_install_attempts < 1:
            raise ValueError(
                f"max_install_attempts must be >= 1, got "
                f"{max_install_attempts}"
            )
        if parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {parallel}")
        self.table = table
        self.metric = metric
        self.control_center = self.control_center_class(
            table, metric, algorithm=algorithm, budget=budget,
            cache_size=cache_size, stale_policy=stale_policy,
            incremental=incremental, shared_cache=shared_cache,
            **builder_options,
        )
        #: Histogram wire format Monitors speak (``"v2"``, the default,
        #: ships the queryable self-describing encoding from
        #: :mod:`repro.core.wire`; ``"v1"`` keeps the modelled
        #: (node, fixed-width counter) accounting of the seed era).
        self.wire_format = wire_format
        self.monitors = [
            Monitor(f"monitor-{i}", wire_format=wire_format)
            for i in range(num_monitors)
        ]
        self.faults = faults
        self.channel = Channel(table.domain, faults=faults)
        #: Channel ``(upstream, downstream)`` byte totals when the last
        #: run() ended: a report bills only the bytes sent since, so
        #: training installs count toward the first run.
        self._billed_bytes = (0, 0)
        self.max_install_attempts = max_install_attempts
        #: Worker threads partitioning monitor windows concurrently
        #: (1 = the serial loop).  Results are identical either way:
        #: partitioning is pure per-monitor work, and the fault RNG
        #: draws stay in the serial per-monitor order (decisions are
        #: drawn before the pool runs; see ``FaultModel.plan_decisions``).
        self.parallel = parallel

    def train(self, history: Trace) -> None:
        """Build the partitioning function from past traffic and push it
        to every Monitor.

        Installs go over the (possibly faulty) channel; training blocks
        until every Monitor holds the function, retrying lost installs
        up to ``max_install_attempts`` times per Monitor — every
        attempt is a charged wire transmission.
        """
        counts = exact_group_counts(
            self.table, history.uids, values=history.values
        )
        function = self.control_center.rebuild_function(counts)
        version = self.control_center.function_version
        journal = get_journal()
        for monitor in self.monitors:
            for attempt in range(1, self.max_install_attempts + 1):
                acked = self.channel.send_function(function, version=version)
                if journal.enabled:
                    # window -1 marks the training phase (before any
                    # live window existed).
                    journal.emit(
                        "install",
                        window=-1,
                        monitor=monitor.name,
                        version=version,
                        attempt=attempt,
                        retry=attempt > 1,
                        acked=acked,
                    )
                if acked:
                    monitor.install_function(function, version)
                    break
            else:
                raise RuntimeError(
                    f"could not install function on {monitor.name!r} in "
                    f"{self.max_install_attempts} attempts"
                )

    # -- the windowed pipeline ---------------------------------------------
    def _partition_jobs(self, pool, jobs):
        """Phase 2 of the window loop: turn the planned ``(monitor,
        window, fault-plan)`` jobs into outgoing histogram messages.

        Pure per-monitor work — no RNG draws, no channel writes — so
        subclasses may fan it out however they like (the thread pool
        here; shard worker processes in
        :class:`repro.serving.ShardedMonitoringSystem`) as long as the
        returned messages are bit-identical to the serial loop's.
        """
        if pool is not None and len(jobs) > 1:
            built = list(
                pool.map(
                    lambda job: job[0]._build(
                        np.asarray(job[1].uids, dtype=np.int64),
                        job[1].values,
                    ),
                    jobs,
                )
            )
            messages = []
            for (monitor, window, _), hist in zip(jobs, built):
                monitor._account(1, int(window.uids.size), (hist,))
                messages.append(monitor._message(window.index, hist))
            return messages
        return [
            monitor.process_window(
                window.index, window.uids, values=window.values
            )
            for monitor, window, _ in jobs
        ]

    def _segment_shares(
        self, live: Trace, window_width: float, split_seed: int
    ) -> List[list]:
        """Split the live trace across Monitors and segment each share
        into tumbling windows.  Deterministic (the split is seeded), so
        subclasses that already derived the same decomposition (the
        serving layer's prefetch pass) may return it instead."""
        shares = live.split(len(self.monitors), seed=split_seed)
        windows = TumblingWindows(window_width)
        return [list(windows.segment(share)) for share in shares]

    def _ground_truth(
        self, window: int, uids: np.ndarray, values: Optional[np.ndarray]
    ) -> np.ndarray:
        """Exact per-group aggregates for one window's full traffic.

        Subclass extension point: the serving layer precomputes the
        whole run's ground truth in one batched pass
        (:func:`~.query.exact_group_counts_batched`) and answers from
        the matrix — bit-identical to this per-window join."""
        return exact_group_counts(self.table, uids, values=values)

    def _after_window(
        self,
        window: int,
        decoded: DecodedWindow,
        actual: np.ndarray,
        report: SystemReport,
    ) -> None:
        """Hook run after each decoded window (subclass extension
        point: drift detection, recalibration, ...)."""

    def _window_signals(self, window: int) -> Dict[str, float]:
        """Extra named signals merged into the SLO engine's per-window
        observation (subclass extension point: the sharded serving
        layer contributes ``prefetch_miss_rate`` and
        ``shard_imbalance``).  Keys here shadow same-named
        :class:`WindowReport` fields, so pick fresh names."""
        return {}

    def _run_windows(
        self,
        live: Trace,
        window_width: float,
        split_seed: int,
        faults: Optional[FaultModel],
        report: SystemReport,
    ) -> SystemReport:
        if self.control_center.function is None:
            raise RuntimeError("call train() before run()")
        cc = self.control_center
        registry = get_registry()
        journal = get_journal()
        tracer = get_tracer()
        slo = get_slo_engine()
        if faults is not None:
            faults.reset()
        previous_faults = self.channel.faults
        self.channel.faults = faults
        installer = InstallScheduler()
        #: arrival tick -> deliveries landing there (delayed copies).
        in_flight: Dict[int, List[Delivery]] = {}
        # The pool is scoped to this run: created fresh, torn down in
        # the ``finally`` below with ``cancel_futures=True`` so a
        # mid-run exception (a poisoned window, a KeyboardInterrupt)
        # never leaks worker threads into the next ``run()`` call.
        pool = (
            ThreadPoolExecutor(
                max_workers=self.parallel,
                thread_name_prefix="repro-partition",
            )
            if self.parallel > 1
            else None
        )
        try:
            segmented = self._segment_shares(live, window_width, split_seed)
            n_windows = max((len(s) for s in segmented), default=0)
            if journal.enabled:
                faults_spec = (
                    {
                        name: getattr(faults, name)
                        for name in (
                            "drop", "duplicate", "reorder", "delay",
                            "max_delay_windows", "crash", "install_drop",
                            "seed",
                        )
                    }
                    if faults is not None
                    else None
                )
                journal.emit(
                    "run_start",
                    wall_start=journal.wall_start,
                    windows=n_windows,
                    monitors=len(self.monitors),
                    algorithm=cc.algorithm,
                    budget=cc.budget,
                    metric=getattr(self.metric, "name", "") or repr(self.metric),
                    stale_policy=cc.stale_policy,
                    parallel=self.parallel,
                    window_width=float(window_width),
                    split_seed=int(split_seed),
                    faults=faults_spec,
                )
            with span(
                "system.run", windows=n_windows, monitors=len(self.monitors),
            ):
                for w in range(n_windows):
                    # Control plane first: lagging Monitors (crashed, or
                    # missed an install) get a retry when their backoff
                    # expires.
                    installer.tick(w, cc, self.monitors, self.channel)
                    upstream_before = self.channel.upstream_bytes
                    arrivals: List[Delivery] = list(in_flight.pop(w, []))
                    window_uids = []
                    window_values = []
                    expected = 0
                    # Phase 1 (sequential): ground truth, crash checks
                    # and fault-plan draws, in monitor order — the RNG
                    # consumes decisions exactly as the serial loop did.
                    jobs: List[Tuple[Monitor, object, object]] = []
                    for monitor, segs in zip(self.monitors, segmented):
                        if w >= len(segs):
                            continue
                        window = segs[w]
                        # Ground truth covers the traffic that existed,
                        # whether or not its Monitor managed to report
                        # it — that is what degradation is measured
                        # against.
                        window_uids.append(window.uids)
                        if window.values is not None:
                            window_values.append(window.values)
                        expected += 1
                        if faults is not None and faults.crashes(
                            monitor.name, w
                        ):
                            monitor.crash()
                            report.monitor_crashes += 1
                            if registry.enabled:
                                registry.counter(
                                    "system.monitor.crashes"
                                ).inc()
                            if journal.enabled:
                                journal.emit(
                                    "fault.crash",
                                    window=w,
                                    monitor=monitor.name,
                                )
                            continue
                        if monitor.function is None:
                            # Down since a crash; rejoins once the
                            # install scheduler reaches it.
                            continue
                        plan = (
                            faults.plan_decisions()
                            if faults is not None
                            else None
                        )
                        jobs.append((monitor, window, plan))
                    # Phase 2: partition every reporting Monitor's
                    # window — pure per-monitor work, fanned out across
                    # the pool when one is configured.
                    messages = self._partition_jobs(pool, jobs)
                    # Phase 3 (sequential): sends in monitor order,
                    # applying the pre-drawn fault plans.
                    for (monitor, window, plan), msg in zip(jobs, messages):
                        for delivery in self.channel.send_histogram(
                            msg, plan=plan
                        ):
                            if delivery.delay == 0:
                                arrivals.append(delivery)
                            else:
                                in_flight.setdefault(
                                    w + delivery.delay, []
                                ).append(delivery)
                    if faults is not None:
                        faults.apply_reorder(arrivals)
                    hist_bytes = (
                        self.channel.upstream_bytes - upstream_before
                    )
                    on_time = [
                        d.message
                        for d in arrivals
                        if d.message.window_index == w
                    ]
                    late = len(arrivals) - len(on_time)
                    if late and registry.enabled:
                        registry.counter("system.messages.late").inc(late)
                    if tracer.enabled:
                        # Every copy arriving this tick is delivered;
                        # copies past their window's watermark close
                        # immediately as late (decode never sees them).
                        for d in arrivals:
                            m = d.message
                            tracer.delivered(
                                m.monitor, m.window_index,
                                m.function_version, d.copy, at_window=w,
                            )
                            if m.window_index != w:
                                tracer.close(
                                    m.monitor, m.window_index,
                                    m.function_version, "late",
                                    at_window=w, copy=d.copy,
                                )
                    if not window_uids:
                        # No Monitor had a window slot this tick; there
                        # is nothing to ground-truth against, so skip.
                        continue
                    uids = np.concatenate(window_uids)
                    vals = (
                        np.concatenate(window_values)
                        if len(window_values) == len(window_uids)
                        else None
                    )
                    actual = self._ground_truth(w, uids, vals)
                    decoded = cc.decode_window(
                        on_time, expected_monitors=expected
                    )
                    error = float(cc.error(decoded.estimates, actual))
                    raw = self.channel.raw_stream_bytes(int(uids.size))
                    quality = decoded.quality
                    window_report = WindowReport(
                        window_index=w,
                        tuples=int(uids.size),
                        error=error,
                        histogram_bytes=hist_bytes,
                        raw_bytes=raw,
                        nonzero_buckets=decoded.nonzero_buckets,
                        monitors_reporting=decoded.monitors_reporting,
                        duplicates_dropped=decoded.duplicates_dropped,
                        stale_messages=decoded.stale_messages,
                        late_messages=late,
                        coverage=decoded.coverage,
                        spill_fraction=(
                            quality.spill_fraction if quality else 0.0
                        ),
                        occupancy_entropy=(
                            quality.occupancy_entropy if quality else 0.0
                        ),
                        occupancy_skew=(
                            quality.occupancy_skew if quality else 0.0
                        ),
                        drift_score=(
                            quality.drift_score if quality else 0.0
                        ),
                    )
                    report.windows.append(window_report)
                    report.raw_bytes += raw
                    # One field dict per window, for the decode event
                    # and the SLO signals alike.
                    fields = (
                        asdict(window_report)
                        if journal.enabled or slo.enabled
                        else None
                    )
                    if journal.enabled:
                        # The decode event carries the full WindowReport
                        # so replay can rebuild it field-for-field.
                        journal.emit("decode", **fields)
                    if registry.enabled:
                        registry.counter("system.windows").inc()
                        registry.counter("system.tuples").inc(int(uids.size))
                        registry.counter("system.raw.bytes").inc(raw)
                        registry.histogram("system.window.error").observe(
                            error
                        )
                        registry.histogram("system.window.bytes").observe(
                            hist_bytes
                        )
                        registry.histogram(
                            "system.window.nonzero_buckets"
                        ).observe(decoded.nonzero_buckets)
                        registry.histogram(
                            "system.window.monitors_reporting"
                        ).observe(decoded.monitors_reporting)
                    self._after_window(w, decoded, actual, report)
                    # One time-series point per decoded window:
                    # counters as deltas, gauges as levels, timers as
                    # per-window quantiles (no-op when disabled).
                    emit_window_record(registry, w)
                    # Delivered-close ages are per-window: drain them
                    # even without an SLO engine so a late-attached one
                    # never sees stale history.
                    ages = (
                        tracer.drain_window_ages()
                        if tracer.enabled
                        else []
                    )
                    if slo.enabled:
                        signals = {
                            name: float(value)
                            for name, value in fields.items()
                            if isinstance(value, (int, float))
                        }
                        if tracer.enabled:
                            signals["delivery_p50_windows"] = quantile(
                                ages, 0.50
                            )
                            signals["delivery_p90_windows"] = quantile(
                                ages, 0.90
                            )
                            signals["delivery_p99_windows"] = quantile(
                                ages, 0.99
                            )
                        signals.update(self._window_signals(w))
                        slo.observe(w, signals)
            report.expired_messages = sum(
                len(v) for v in in_flight.values()
            )
            if tracer.enabled:
                # Copies still in flight past the last window can never
                # decode — close their traces as expired.
                tracer.expire_open(n_windows)
            if report.expired_messages and registry.enabled:
                registry.counter("system.messages.expired").inc(
                    report.expired_messages
                )
        finally:
            self.channel.faults = previous_faults
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
            billed_upstream, billed_downstream = self._billed_bytes
            self._billed_bytes = (
                self.channel.upstream_bytes, self.channel.downstream_bytes,
            )
        report.upstream_bytes = self._billed_bytes[0] - billed_upstream
        report.function_bytes = self._billed_bytes[1] - billed_downstream
        if slo.enabled:
            report.alerts = slo.finish()
        if journal.enabled:
            journal.emit(
                "run_end",
                windows=len(report.windows),
                upstream_bytes=report.upstream_bytes,
                function_bytes=report.function_bytes,
                raw_bytes=report.raw_bytes,
                monitor_crashes=report.monitor_crashes,
                expired_messages=report.expired_messages,
            )
        if registry.enabled:
            registry.gauge("system.mean_error").set(report.mean_error)
            registry.gauge("system.compression_ratio").set(
                report.compression_ratio
            )
        return report

    def run(
        self,
        live: Trace,
        window_width: float,
        split_seed: int = 0,
        faults: object = _UNSET,
    ) -> SystemReport:
        """Stream the live trace through the system window by window.

        ``faults`` overrides the system-level fault model for this run
        (``None`` forces a clean link); by default the model given at
        construction applies.
        """
        active = self.faults if faults is _UNSET else faults
        return self._run_windows(
            live, window_width, split_seed, active, SystemReport()
        )
