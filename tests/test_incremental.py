"""Incremental (subtree-memoized) rebuilds must be bit-identical to
from-scratch builds.

The memo reuses previous-build DP arrays for subtrees whose group
counts are unchanged; because those arrays are exactly what an
identical solve on identical content produces, the curve bytes and the
reconstructed bucket lists must match a full rebuild with zero
tolerance — for both semantics, all three kernel modes, and arbitrary
count perturbations including ones that change the pruned structure.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GroupTable, UIDDomain, get_metric
from repro.algorithms import incremental as incmod
from repro.algorithms.construct import build
from repro.algorithms.kernels import use_kernel_mode
from repro.algorithms.nonoverlapping import build_nonoverlapping
from repro.core.hierarchy import PrunedHierarchy
from repro.data import generate_subnet_table
from repro.obs import (
    EventJournal,
    MetricsRegistry,
    read_journal,
    use_journal,
    use_registry,
)
from repro.streams import ControlCenter

MODES = ("naive", "fast", "suffstats")
BUDGETS = {"nonoverlapping": 16, "overlapping": 10}

TABLE = generate_subnet_table(UIDDomain(10), seed=5)
METRIC = get_metric("rms")


def _base_counts(seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 60, len(TABLE)).astype(float)


def _buckets(fn):
    return [
        (b.node, getattr(b, "sparse_group_node", None)) for b in fn.buckets
    ]


def _check_pair(algorithm, counts, memo, **options):
    """Build full + incremental from the same counts; assert
    bit-identity and return the refreshed memo + session stats."""
    budget = BUDGETS[algorithm]
    h_full = PrunedHierarchy(TABLE, counts)
    full = build(algorithm, h_full, METRIC, budget, **options)
    h_inc = PrunedHierarchy(TABLE, counts)
    session = incmod.new_session(
        algorithm, h_inc, METRIC, budget, memo, **options
    )
    incr = build(algorithm, h_inc, METRIC, budget, memo=session, **options)
    assert full.curve.tobytes() == incr.curve.tobytes()
    for b in (1, 3, budget):
        assert _buckets(full.function_at(b)) == _buckets(
            incr.function_at(b)
        )
    return session.finish(), session.stats()


class TestBitIdentity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "algorithm", ("nonoverlapping", "overlapping")
    )
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_random_perturbation_chain(self, mode, algorithm, data):
        counts = _base_counts()
        n = len(counts)
        with use_kernel_mode(mode):
            memo, _ = _check_pair(algorithm, counts, None)
            steps = data.draw(st.integers(1, 3))
            for _ in range(steps):
                idx = data.draw(
                    st.lists(
                        st.integers(0, n - 1), min_size=1, max_size=12,
                        unique=True,
                    )
                )
                vals = data.draw(
                    st.lists(
                        st.integers(0, 200),  # 0 changes pruned shape
                        min_size=len(idx), max_size=len(idx),
                    )
                )
                counts = counts.copy()
                counts[idx] = np.asarray(vals, dtype=float)
                if counts.sum() == 0:
                    counts[0] = 1.0  # empty windows are not built
                memo, _ = _check_pair(algorithm, counts, memo)

    @pytest.mark.parametrize("mode", MODES)
    def test_localized_drift_reuses_subtrees(self, mode):
        counts = _base_counts()
        with use_kernel_mode(mode):
            for algorithm in ("nonoverlapping", "overlapping"):
                memo, first = _check_pair(algorithm, counts, None)
                assert first["reused_subtrees"] == 0  # cold start
                drifted = counts.copy()
                nz = np.nonzero(drifted)[0]
                drifted[nz[:3]] *= 2.0
                _, stats = _check_pair(algorithm, drifted, memo)
                assert stats["dirty_groups"] == 3
                assert stats["reused_fraction"] > 0.3
                assert stats["dirty_subtrees"] > 0

    def test_identical_counts_reuse_everything(self):
        counts = _base_counts()
        memo, _ = _check_pair("nonoverlapping", counts, None)
        _, stats = _check_pair("nonoverlapping", counts.copy(), memo)
        assert stats["dirty_subtrees"] == 0
        assert stats["reused_fraction"] == 1.0
        assert stats["dirty_groups"] == 0

    def test_overlapping_sparse_off_round_trips(self):
        counts = _base_counts()
        memo, _ = _check_pair("overlapping", counts, None, sparse=False)
        drifted = counts.copy()
        drifted[np.nonzero(drifted)[0][:2]] += 7.0
        _, stats = _check_pair(
            "overlapping", drifted, memo, sparse=False
        )
        assert stats["reused_subtrees"] > 0


class TestMemoKeying:
    def test_config_change_invalidates_memo(self):
        counts = _base_counts()
        memo, _ = _check_pair("nonoverlapping", counts, None)
        # Same counts, different budget: nothing may be spliced.
        h = PrunedHierarchy(TABLE, counts)
        session = incmod.new_session(
            "nonoverlapping", h, METRIC, BUDGETS["nonoverlapping"] + 4,
            memo,
        )
        build_nonoverlapping(
            h, METRIC, BUDGETS["nonoverlapping"] + 4, memo=session
        )
        assert session.stats()["reused_subtrees"] == 0

    def test_kernel_mode_is_part_of_the_key(self):
        # suffstats grperr values are ~1e-12 off the other modes', so a
        # memo recorded under one mode must not leak into another.
        counts = _base_counts()
        with use_kernel_mode("fast"):
            memo, _ = _check_pair("nonoverlapping", counts, None)
        with use_kernel_mode("suffstats"):
            _, stats = _check_pair("nonoverlapping", counts, memo)
        assert stats["reused_subtrees"] == 0

    def test_unsupported_algorithms_are_rejected(self):
        assert not incmod.supports_incremental("lpm_greedy", {})
        assert not incmod.supports_incremental(
            "nonoverlapping", {"low_memory": True}
        )
        assert incmod.supports_incremental("overlapping", {})
        h = PrunedHierarchy(TABLE, _base_counts())
        with pytest.raises(ValueError):
            incmod.new_session("lpm_greedy", h, METRIC, 8, None)

    def test_low_memory_with_memo_rejected(self):
        h = PrunedHierarchy(TABLE, _base_counts())
        session = incmod.new_session(
            "nonoverlapping", h, METRIC, 8, None
        )
        with pytest.raises(ValueError):
            build_nonoverlapping(h, METRIC, 8, low_memory=True,
                                 memo=session)

    def test_reuse_tracks_content_not_position(self):
        # Zeroing one group reshapes the pruned tree around it and
        # shifts every postorder index after it.  Exactly the internal
        # nodes whose group range holds that group are re-solved; every
        # other subtree keeps its content and is reused wherever it
        # landed.
        counts = _base_counts()
        memo, _ = _check_pair("nonoverlapping", counts, None)
        old_len = len(PrunedHierarchy(TABLE, counts))
        for g in np.flatnonzero(counts).tolist():
            drifted = counts.copy()
            drifted[g] = 0.0
            a = PrunedHierarchy(TABLE, drifted).arrays
            if a.node_id.size != old_len:  # the postorder did move
                break
        else:
            raise AssertionError("no single group reshapes the tree")
        _, stats = _check_pair("nonoverlapping", drifted, memo)
        internal = a.left >= 0
        holds_g = (a.first_group <= g) & (g < a.first_group + a.n_groups)
        assert stats["dirty_subtrees"] == np.count_nonzero(internal & holds_g)
        assert stats["reused_subtrees"] == np.count_nonzero(
            internal & ~holds_g
        )
        assert stats["reused_subtrees"] > 0

    def test_memo_from_another_table_is_ignored(self):
        # Same group count, different groups: a count diff against this
        # memo would say nothing about the subtrees, so it is dropped.
        dom = UIDDomain(10)
        other = GroupTable(dom, [dom.leaf(u) for u in range(len(TABLE))])
        counts = _base_counts()
        memo, _ = _check_pair("nonoverlapping", counts, None)
        h = PrunedHierarchy(other, counts)
        session = incmod.new_session(
            "nonoverlapping", h, METRIC, BUDGETS["nonoverlapping"], memo
        )
        build_nonoverlapping(
            h, METRIC, BUDGETS["nonoverlapping"], memo=session
        )
        assert session.stats()["reused_subtrees"] == 0


def _support_chain():
    """Five count vectors whose nonzero support shrinks, grows, holds,
    and shifts in two places at once."""
    counts = _base_counts()
    nz = np.flatnonzero(counts)
    chain = [counts]
    c = counts.copy()
    c[nz[:6]] = 0.0
    chain.append(c)
    c = c.copy()
    c[nz[:3]] = 7.0
    c[nz[-4:]] *= 3.0
    chain.append(c)
    c = c.copy()
    c[nz[40:60]] += 1.0
    chain.append(c)
    c = c.copy()
    c[np.flatnonzero(c == 0)[::2]] = 5.0
    c[nz[100:110]] = 0.0
    chain.append(c)
    return chain


#: (dirty_subtrees, reused_subtrees) per build of :func:`_support_chain`:
#: reference values recorded with subtree-fingerprint matching, pinned
#: so that ``incremental.reused_fraction`` keeps its meaning.
CHAIN_STATS = {
    "nonoverlapping": [(128, 0), (9, 117), (16, 111), (28, 99), (32, 89)],
    "overlapping": [(124, 0), (121, 0), (121, 0), (26, 95), (118, 0)],
}


class TestSupportChangeStats:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("algorithm", sorted(CHAIN_STATS))
    def test_chain_matches_full_and_pinned_stats(self, mode, algorithm):
        with use_kernel_mode(mode):
            memo = None
            got = []
            for counts in _support_chain():
                memo, stats = _check_pair(algorithm, counts, memo)
                got.append(
                    (int(stats["dirty_subtrees"]),
                     int(stats["reused_subtrees"]))
                )
        assert got == CHAIN_STATS[algorithm]


class TestControlCenterIncremental:
    def _counts_pair(self):
        counts1 = _base_counts(seed=3)
        counts2 = counts1.copy()
        counts2[np.nonzero(counts2)[0][:4]] *= 3.0
        return counts1, counts2

    def test_journal_and_counters(self, tmp_path):
        counts1, counts2 = self._counts_pair()
        registry = MetricsRegistry()
        path = str(tmp_path / "inc.journal")
        with use_registry(registry), use_journal(EventJournal(path)):
            center = ControlCenter(
                TABLE, METRIC, algorithm="nonoverlapping", budget=16,
                incremental=True,
            )
            center.rebuild_function(counts1)
            center.rebuild_function(counts2)
        rebuilds = [
            e for e in read_journal(path) if e["event"] == "rebuild"
        ]
        assert len(rebuilds) == 2
        for event in rebuilds:
            assert "dirty_subtrees" in event
            assert "reused_fraction" in event
        assert rebuilds[0]["reused_fraction"] == 0.0
        assert rebuilds[1]["reused_fraction"] > 0.0
        assert registry.counter("control.rebuild.subtrees.reused").value > 0
        assert registry.counter("control.rebuild.subtrees.dirty").value > 0

    def test_flag_off_journal_has_no_incremental_fields(self, tmp_path):
        counts1, counts2 = self._counts_pair()
        path = str(tmp_path / "plain.journal")
        with use_journal(EventJournal(path)):
            center = ControlCenter(
                TABLE, METRIC, algorithm="nonoverlapping", budget=16,
            )
            center.rebuild_function(counts1)
            center.rebuild_function(counts2)
        for event in read_journal(path):
            if event["event"] == "rebuild":
                assert "dirty_subtrees" not in event
                assert "reused_fraction" not in event

    def test_functions_identical_with_and_without_flag(self):
        counts1, counts2 = self._counts_pair()
        for algorithm in ("nonoverlapping", "overlapping"):
            plain = ControlCenter(
                TABLE, METRIC, algorithm=algorithm, budget=12,
            )
            inc = ControlCenter(
                TABLE, METRIC, algorithm=algorithm, budget=12,
                incremental=True,
            )
            for counts in (counts1, counts2, counts1 * 2.0):
                f_plain = plain.rebuild_function(counts)
                f_inc = inc.rebuild_function(counts)
                assert _buckets(f_plain) == _buckets(f_inc)
                assert plain.function_version == inc.function_version

    def test_incremental_with_unsupported_algorithm_is_inert(self):
        counts1, counts2 = self._counts_pair()
        center = ControlCenter(
            TABLE, METRIC, algorithm="lpm_greedy", budget=12,
            incremental=True,
        )
        assert not center.incremental  # silently degraded to full
        center.rebuild_function(counts1)
        center.rebuild_function(counts2)
        assert center._curve_memo is None
