"""Bit-exactness property tests for the compiled serving fast path.

The contract (the same one ``algorithms.kernels`` established for
construction): under ``REPRO_STREAM_KERNELS=fast`` every histogram and
every decoded estimate is **bit-for-bit identical** to the naive
reference path — the compiled kernels perform the same floating-point
accumulations in the same order, so not even the last ulp may move.

Covered here, over randomized functions and windows:

* :class:`~repro.core.compiled.CompiledPartitioner` vs
  ``PartitioningFunction.build_histogram`` for all three semantics
  classes, weighted and unweighted, sparse buckets included;
* batched :meth:`~repro.core.compiled.CompiledPartitioner.build_histograms`
  vs one call per window;
* :class:`~repro.core.compiled.CompiledEstimator` vs
  :func:`~repro.core.estimate.reconstruct_estimates`;
* vectorized :meth:`~repro.core.partition.Histogram.merge` vs bucketwise
  dict accumulation;
* the Monitor / Control Center / MonitoringSystem integration, serial
  and ``parallel=N``;
* the mode machinery itself.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Bucket,
    CompiledEstimator,
    CompiledPartitioner,
    GroupTable,
    Histogram,
    LongestPrefixMatchPartitioning,
    NonoverlappingPartitioning,
    OverlappingPartitioning,
    UIDDomain,
    get_metric,
    histogram_from_group_counts,
    reconstruct_estimates,
)
from repro.streams import (
    STREAM_KERNEL_MODES,
    ControlCenter,
    Monitor,
    MonitoringSystem,
    Trace,
    set_stream_kernel_mode,
    stream_kernel_mode,
    use_stream_kernel_mode,
)

DOM = UIDDomain(7)


def _random_function(rng, max_depth=None):
    """A random valid function of a random semantics class; cap bucket
    depth with ``max_depth`` to keep buckets at-or-above group nodes
    for estimator tests."""
    max_depth = DOM.height if max_depth is None else max_depth
    kind = rng.integers(0, 3)
    if kind == 0:
        depth = int(rng.integers(1, max_depth))
        width = 1 << depth
        prefixes = rng.choice(
            width, size=int(rng.integers(1, min(6, width) + 1)), replace=False
        )
        buckets = [Bucket(DOM.node(depth, int(p))) for p in sorted(prefixes)]
        return NonoverlappingPartitioning(DOM, buckets)
    cls = (
        OverlappingPartitioning
        if kind == 1
        else LongestPrefixMatchPartitioning
    )
    for _ in range(50):
        nodes = set()
        while len(nodes) < int(rng.integers(1, 8)):
            d = int(rng.integers(0, max_depth + 1))
            nodes.add(int(DOM.node(d, int(rng.integers(0, 1 << d)))))
        try:
            return cls(DOM, [Bucket(n) for n in nodes])
        except ValueError:
            continue
    return cls(DOM, [Bucket(1)])


def _random_window(rng, max_len=300):
    n = int(rng.integers(0, max_len))
    uids = rng.integers(0, DOM.num_uids, size=n)
    values = rng.normal(size=n) * 10.0
    return uids, values


def _assert_histograms_identical(a, b):
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.values, b.values)  # bitwise: no tolerance
    assert a.unmatched == b.unmatched
    assert a.total == b.total


class TestCompiledPartitioner:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_bit_identical_to_naive(self, seed):
        rng = np.random.default_rng(seed)
        fn = _random_function(rng)
        uids, values = _random_window(rng)
        compiled = CompiledPartitioner.for_function(fn)
        for vals in (None, values):
            _assert_histograms_identical(
                fn.build_histogram(uids, values=vals),
                compiled.build_histogram(uids, values=vals),
            )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_batch_equals_single(self, seed):
        rng = np.random.default_rng(seed)
        fn = _random_function(rng)
        compiled = CompiledPartitioner.for_function(fn)
        windows = [_random_window(rng, 120) for _ in range(4)]
        uid_windows = [w[0] for w in windows]
        value_windows = [w[1] for w in windows]
        for vals in (None, value_windows):
            batched = compiled.build_histograms(uid_windows, vals)
            for i, got in enumerate(batched):
                want = compiled.build_histogram(
                    uid_windows[i], None if vals is None else vals[i]
                )
                _assert_histograms_identical(want, got)

    def test_sparse_buckets(self):
        rng = np.random.default_rng(5)
        uids = rng.integers(0, DOM.num_uids, size=600)
        values = rng.random(600)
        for cls in (OverlappingPartitioning, LongestPrefixMatchPartitioning):
            fn = cls(
                DOM,
                [
                    Bucket(1),
                    Bucket(DOM.node(2, 1), sparse_group_node=DOM.node(4, 5)),
                ],
            )
            compiled = CompiledPartitioner.for_function(fn)
            for vals in (None, values):
                _assert_histograms_identical(
                    fn.build_histogram(uids, values=vals),
                    compiled.build_histogram(uids, values=vals),
                )

    def test_compile_cached_on_function(self):
        fn = NonoverlappingPartitioning(DOM, [Bucket(DOM.node(1, 0))])
        assert CompiledPartitioner.for_function(
            fn
        ) is CompiledPartitioner.for_function(fn)


class TestCompiledEstimator:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_bit_identical_to_reference(self, seed):
        rng = np.random.default_rng(seed)
        table = GroupTable(DOM, [DOM.node(6, p) for p in range(64)])
        fn = _random_function(rng, max_depth=6)
        counts = rng.integers(0, 60, size=len(table)).astype(np.float64)
        hist = histogram_from_group_counts(table, counts, fn)
        naive = reconstruct_estimates(table, fn, hist)
        fast = CompiledEstimator.for_pair(table, fn).estimate(hist)
        assert np.array_equal(naive, fast)  # bitwise: no tolerance

    def test_sparse_outer_residual(self):
        table = GroupTable(DOM, [DOM.node(5, p) for p in range(32)])
        fn = OverlappingPartitioning(
            DOM,
            [
                Bucket(1),
                Bucket(DOM.node(2, 1), sparse_group_node=DOM.node(4, 5)),
            ],
        )
        counts = np.linspace(0, 31, 32)
        hist = histogram_from_group_counts(table, counts, fn)
        naive = reconstruct_estimates(table, fn, hist)
        fast = CompiledEstimator.for_pair(table, fn).estimate(hist)
        assert np.array_equal(naive, fast)

    def test_estimator_cached_per_pair(self):
        table = GroupTable(DOM, [DOM.node(5, p) for p in range(32)])
        fn = NonoverlappingPartitioning(DOM, [Bucket(DOM.node(1, 0))])
        assert CompiledEstimator.for_pair(
            table, fn
        ) is CompiledEstimator.for_pair(table, fn)

    def test_estimator_recompiled_for_another_table(self):
        fn = NonoverlappingPartitioning(DOM, [Bucket(DOM.node(1, 0))])
        first = GroupTable(DOM, [DOM.node(5, p) for p in range(32)])
        second = GroupTable(DOM, [DOM.node(5, p) for p in range(32)])
        estimator = CompiledEstimator.for_pair(first, fn)
        assert CompiledEstimator.for_pair(second, fn).table is second
        assert CompiledEstimator.for_pair(first, fn) is not estimator

    def test_superseded_function_is_freed(self):
        # The compiled estimator is cached on its function, so it must
        # not keep that function alive once a rebuild replaces it.
        table = GroupTable(DOM, [DOM.node(5, p) for p in range(32)])
        center = ControlCenter(
            table, get_metric("rms"), algorithm="nonoverlapping",
            budget=4, cache_size=0,
        )
        counts = np.arange(len(table), dtype=np.float64)
        old = center.rebuild_function(counts)
        CompiledEstimator.for_pair(table, old).estimate(
            histogram_from_group_counts(table, counts, old)
        )
        superseded = weakref.ref(old)
        del old
        center.rebuild_function(counts[::-1].copy())
        gc.collect()
        assert superseded() is None


class TestVectorizedMerge:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_merge_matches_dict_accumulation(self, seed):
        rng = np.random.default_rng(seed)
        fn = _random_function(rng)
        hists = [
            fn.build_histogram(*_random_window(rng, 150)[:1])
            for _ in range(int(rng.integers(0, 5)))
        ]
        merged = Histogram.merge(hists)
        expected = {}
        for h in hists:
            for node, value in h.counts.items():
                expected[node] = expected.get(node, 0.0) + value
        expected = {n: v for n, v in expected.items() if v != 0}
        assert merged.counts == expected
        assert merged.unmatched == sum(h.unmatched for h in hists)
        assert merged.total == sum(h.total for h in hists)


class TestStreamPipeline:
    def _workload(self, seed=0):
        rng = np.random.default_rng(seed)
        table = GroupTable(DOM, [DOM.node(6, p) for p in range(64)])
        n = 3000
        uids = rng.integers(0, DOM.num_uids, size=n)
        values = rng.random(n) * 4.0
        trace = Trace(np.sort(rng.random(n) * 100.0), uids, values)
        return table, trace.slice_time(0, 50), trace.slice_time(50, 100)

    def test_monitor_fast_equals_naive(self):
        table, history, live = self._workload()
        fn = LongestPrefixMatchPartitioning(
            DOM, [Bucket(1), Bucket(DOM.node(3, 2)), Bucket(DOM.node(2, 3))]
        )
        monitor = Monitor("m0")
        monitor.install_function(fn, 0)
        for vals in (None, live.values):
            with use_stream_kernel_mode("fast"):
                fast = monitor.process_window(0, live.uids, values=vals)
            with use_stream_kernel_mode("naive"):
                naive = monitor.process_window(0, live.uids, values=vals)
            _assert_histograms_identical(fast.histogram, naive.histogram)

    def test_monitor_batch_api(self):
        fn = NonoverlappingPartitioning(
            DOM, [Bucket(DOM.node(2, p)) for p in range(4)]
        )
        rng = np.random.default_rng(1)
        windows = [
            rng.integers(0, DOM.num_uids, size=int(rng.integers(1, 80)))
            for _ in range(5)
        ]
        for mode in STREAM_KERNEL_MODES:
            monitor = Monitor("m0")
            monitor.install_function(fn, 3)
            with use_stream_kernel_mode(mode):
                messages = monitor.process_windows(range(5), windows)
            assert [m.window_index for m in messages] == list(range(5))
            assert monitor.windows_processed == 5
            assert monitor.tuples_processed == sum(len(w) for w in windows)
            for msg, uids in zip(messages, windows):
                _assert_histograms_identical(
                    msg.histogram, fn.build_histogram(uids)
                )

    def test_monitor_batch_rejects_mismatched_lengths(self):
        monitor = Monitor("m0")
        monitor.install_function(
            NonoverlappingPartitioning(DOM, [Bucket(DOM.node(1, 0))]), 0
        )
        with pytest.raises(ValueError, match="window indices"):
            monitor.process_windows([0, 1], [np.array([1])])

    def test_decode_fast_equals_naive(self):
        table, history, live = self._workload(3)
        cc = ControlCenter(table, get_metric("rms"), budget=30)
        counts = np.asarray(
            [float(i % 7) for i in range(len(table))], dtype=np.float64
        )
        fn = cc.rebuild_function(counts)
        monitor = Monitor("m0")
        monitor.install_function(fn, cc.function_version)
        msg = monitor.process_window(0, live.uids, values=live.values)
        with use_stream_kernel_mode("fast"):
            fast = cc.decode_window([msg])
        with use_stream_kernel_mode("naive"):
            naive = cc.decode_window([msg])
        assert np.array_equal(fast.estimates, naive.estimates)

    def test_system_parallel_equals_serial(self):
        table, history, live = self._workload(4)
        reports = []
        for parallel in (1, 3):
            system = MonitoringSystem(
                table,
                get_metric("rms"),
                num_monitors=3,
                budget=30,
                parallel=parallel,
            )
            system.train(history)
            reports.append(system.run(live, window_width=10.0))
        serial, pooled = reports
        assert pooled.windows == serial.windows
        assert pooled.upstream_bytes == serial.upstream_bytes

    def test_system_rejects_bad_parallel(self):
        table, _, _ = self._workload()
        with pytest.raises(ValueError, match="parallel"):
            MonitoringSystem(
                table, get_metric("rms"), num_monitors=2, parallel=0
            )


class TestModeMachinery:
    def test_default_mode_is_fast(self):
        assert stream_kernel_mode() in STREAM_KERNEL_MODES

    def test_set_and_restore(self):
        previous = set_stream_kernel_mode("naive")
        try:
            assert stream_kernel_mode() == "naive"
        finally:
            set_stream_kernel_mode(previous)

    def test_use_scopes_mode(self):
        before = stream_kernel_mode()
        with use_stream_kernel_mode("naive"):
            assert stream_kernel_mode() == "naive"
        assert stream_kernel_mode() == before

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown stream kernel mode"):
            set_stream_kernel_mode("turbo")

    def test_env_initialisation(self):
        import os
        import subprocess
        import sys

        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.streams import stream_kernel_mode;"
                "print(stream_kernel_mode())",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "REPRO_STREAM_KERNELS": "naive"},
        )
        assert out.stdout.strip() == "naive"
