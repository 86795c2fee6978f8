"""The always-on telemetry fast paths equal their reference forms.

* :func:`~repro.obs.emit_window_record` keeps the last emitted values
  on each instrument child instead of snapshotting the registry; its
  records must equal ``snapshot_delta(prev, take_snapshot(registry))``
  for any sequence of updates, child creations and cross-process
  pooling (:func:`~repro.obs.merge_snapshot`).
* :meth:`MetricsRegistry._instrument` answers repeat lookups from a
  flat dict keyed by the labels as passed; it must hand back the same
  child the sorted-label lookup does.
* The journal encodes with one shared encoder; its lines must equal
  ``json.dumps(record, sort_keys=True)``.
"""

import io
import json
import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.obs import (
    EventJournal,
    MetricsRegistry,
    emit_window_record,
    merge_snapshot,
    take_snapshot,
)
from repro.obs.journal import _ENCODER
from repro.obs.snapshots import bucket_quantile, snapshot_delta

NAMES = ("a", "b.c")
#: Label sets as call sites pass them: none, one, two in either order,
#: and non-string values that label as the string ones do.
LABELS = (
    {},
    {"k": "x"},
    {"k": "y", "j": "z"},
    {"j": "z", "k": "y"},
    {"k": 1},
    {"k": "1"},
    {"k": True},
)

_amounts = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
_values = st.floats(min_value=-10.0, max_value=1e8, allow_nan=False)
_kind = st.sampled_from(("counter", "gauge", "histogram", "timer"))
_update = st.tuples(
    _kind,
    st.sampled_from(NAMES),
    st.sampled_from(range(len(LABELS))),
    st.one_of(_amounts, _values),
)
_step = st.one_of(
    _update.map(lambda u: ("update",) + u),
    st.lists(_update, max_size=6).map(lambda us: ("merge", us)),
    st.just(("emit",)),
)


def _apply(registry, kind, name, label, value):
    labels = LABELS[label]
    if kind == "counter":
        registry.counter(name, **labels).inc(abs(value))
    elif kind == "gauge":
        registry.gauge(name, **labels).set(value)
    else:
        getattr(registry, kind)(name, **labels).observe(value)


def _without_ts(record):
    return {k: v for k, v in record.items() if k != "ts"}


class TestWindowRecordEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_step, max_size=40))
    def test_records_equal_snapshot_delta(self, steps):
        registry = MetricsRegistry()
        prev = None
        window = 0
        for step in steps + [("emit",)]:
            if step[0] == "update":
                _apply(registry, *step[1:])
            elif step[0] == "merge":
                # A worker registry pooled under a shard label: children
                # created mid-run, distributions changed in place.
                worker = MetricsRegistry()
                for update in step[1]:
                    _apply(worker, *update)
                merge_snapshot(
                    registry, take_snapshot(worker), {"shard": "0"}
                )
            else:
                cur = take_snapshot(registry)
                expected = snapshot_delta(prev, cur, window=window)
                prev = cur
                got = emit_window_record(registry, window)
                assert _without_ts(got) == _without_ts(expected)
                assert registry.window_series[-1] is got
                window += 1

    def test_series_key_taken_over_by_a_new_child(self):
        # A timer sorts after a same-named histogram, so it takes the
        # series key over; the delta continues from the histogram's
        # last emitted state, as snapshot_delta's does.
        registry = MetricsRegistry()
        registry.histogram("d").observe(1.0)
        registry.histogram("d").observe(2.0)
        prev = take_snapshot(registry)
        emit_window_record(registry, 0)
        registry.timer("d").observe(3.0)
        expected = snapshot_delta(prev, take_snapshot(registry), window=1)
        got = emit_window_record(registry, 1)
        assert _without_ts(got) == _without_ts(expected)
        assert "d" not in got["timers"]  # 1 timer obs < 2 histogram obs

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=-3, max_value=50), min_size=15,
                    max_size=15))
    def test_one_pass_quantiles_equal_bucket_quantile(self, dbuckets):
        # Bucket deltas may be negative when pooled counts move oddly;
        # the one-pass walk must still agree with bucket_quantile.
        registry = MetricsRegistry()
        child = registry.histogram("h")
        emit_window_record(registry, 0)
        child.count = sum(abs(n) for n in dbuckets) + 1
        child.bucket_counts = list(dbuckets)
        entry = emit_window_record(registry, 1)["histograms"]["h"]
        for label, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            assert entry[label] == bucket_quantile(
                child.bounds, tuple(dbuckets), q
            )


class TestInstrumentLookup:
    def test_label_order_and_value_types_share_a_child(self):
        registry = MetricsRegistry()
        first = registry.counter("x", a="1", b="2")
        assert registry.counter("x", b="2", a="1") is first
        assert registry.counter("x", a=1, b=2) is first
        assert registry.counter("x", a="1", b="2") is first

    def test_equal_but_differently_labelled_values_stay_apart(self):
        # 1, 1.0 and True hash and compare equal but label differently.
        registry = MetricsRegistry()
        one = registry.counter("x", n=1)
        assert registry.counter("x", n=True) is not one
        assert registry.counter("x", n=1.0) is not one
        assert registry.counter("x", n="1") is one
        assert registry.counter("x", n=True).labels == (("n", "True"),)

    def test_unhashable_label_value(self):
        registry = MetricsRegistry()
        child = registry.gauge("g", v=[1, 2])
        assert registry.gauge("g", v=[1, 2]) is child
        assert child.labels == (("v", "[1, 2]"),)

    def test_kinds_do_not_share_children(self):
        registry = MetricsRegistry()
        assert registry.histogram("d") is not registry.timer("d")
        assert registry.counter("d") is not registry.gauge("d")


class TestConcurrentLookupsAndRecords:
    def test_no_lost_updates_or_duplicate_children(self):
        # Threads look instruments up on every update (creating labelled
        # children as they go, labels passed in both orders) while the
        # main thread emits window records.  Every lookup of one label
        # set must land on one child, and the counter deltas over the
        # series must add up to every increment.
        registry = MetricsRegistry()
        n_threads, n_iter = 8, 400
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def work(idx):
            for i in range(n_iter):
                registry.counter("hits").inc()
                labels = {"slot": str(i % 5), "thread": str(idx % 2)}
                if i % 2:
                    labels = dict(reversed(list(labels.items())))
                registry.counter("per", **labels).inc()
                registry.timer("work").observe(1e-4)

        threads = [
            threading.Thread(target=work, args=(i,))
            for i in range(n_threads)
        ]
        try:
            for t in threads:
                t.start()
            window = 0
            while any(t.is_alive() for t in threads):
                emit_window_record(registry, window)
                window += 1
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        emit_window_record(registry, window)
        series = registry.window_series
        total = n_threads * n_iter
        assert sum(r["counters"].get("hits", 0.0) for r in series) == total
        per = [
            sum(v for k, v in r["counters"].items() if k.startswith("per{"))
            for r in series
        ]
        assert sum(per) == total
        assert len(registry._metrics[("counter", "per")]) == 10
        assert sum(
            r["timers"].get("work", {}).get("count", 0) for r in series
        ) == total


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


class TestJournalEncoder:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(), _json_values, max_size=6))
    def test_encoder_equals_sorted_dumps(self, record):
        assert _ENCODER.encode(record) == json.dumps(record, sort_keys=True)

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(
        st.text(min_size=1).filter(lambda k: k not in ("seq", "ts", "event")),
        _json_values,
        max_size=6,
    ))
    def test_journal_line_is_sorted_dumps(self, fields):
        sink = io.StringIO()
        EventJournal(sink).emit("decode", **fields)
        line = sink.getvalue()
        assert line.endswith("\n")
        expected = {"seq": 0, "ts": json.loads(line)["ts"], "event": "decode"}
        expected.update(fields)
        assert line[:-1] == json.dumps(expected, sort_keys=True)
