"""Tests for the pruned hierarchy (Steiner tree + zero summaries)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import GroupTable, PrunedHierarchy, UIDDomain

from helpers import random_cut, random_instance, reference_hierarchy


class TestStructure:
    def test_single_nonzero_group(self):
        dom = UIDDomain(4)
        table = GroupTable(dom, [dom.node(4, p) for p in range(16)])
        counts = np.zeros(16)
        counts[5] = 10.0
        h = PrunedHierarchy(table, counts)
        assert h.num_nonzero_groups == 1
        assert h.root.n_groups == 16
        assert h.root.tuples == 10.0
        # the single group leaf is present
        assert len(h.leaves) == 1
        assert h.leaves[0].group_index == 5

    def test_all_zero_window(self):
        dom = UIDDomain(3)
        table = GroupTable(dom, [dom.node(1, 0), dom.node(1, 1)])
        h = PrunedHierarchy(table, np.zeros(2))
        assert h.root.kind == "zero"
        assert h.root.n_groups == 2
        assert h.num_nonzero_groups == 0

    def test_count_shape_rejected(self):
        dom = UIDDomain(3)
        table = GroupTable(dom, [dom.node(1, 0), dom.node(1, 1)])
        with pytest.raises(ValueError):
            PrunedHierarchy(table, np.zeros(3))

    def test_negative_counts_rejected(self):
        dom = UIDDomain(3)
        table = GroupTable(dom, [dom.node(1, 0), dom.node(1, 1)])
        with pytest.raises(ValueError):
            PrunedHierarchy(table, np.array([1.0, -2.0]))

    def test_postorder_children_before_parents(self, small_hierarchy):
        seen = set()
        for p in small_hierarchy.nodes:
            for c in p.children():
                assert c.index in seen
            seen.add(p.index)

    def test_leaf_kinds(self, small_hierarchy):
        for p in small_hierarchy.nodes:
            if p.is_leaf:
                assert p.kind in ("group", "zero")
            else:
                assert p.kind == "branch"
                assert p.left is not None and p.right is not None

    def test_group_leaves_are_nonzero(self, small_hierarchy):
        for leaf in small_hierarchy.leaves:
            assert leaf.tuples > 0
            assert leaf.n_groups == 1
            assert leaf.n_nonzero == 1


class TestAggregates:
    @pytest.mark.parametrize("seed", range(25))
    def test_aggregates_match_table(self, seed):
        """Every pruned node's aggregates must equal direct queries of
        the group table over its subtree."""
        _dom, table, counts = random_instance(seed)
        h = PrunedHierarchy(table, counts)
        for p in h.nodes:
            idx = table.group_indices_below(p.node)
            assert p.n_groups == idx.size
            assert p.n_nonzero == int((counts[idx] > 0).sum())
            assert p.tuples == pytest.approx(float(counts[idx].sum()))

    @pytest.mark.parametrize("seed", range(25))
    def test_zero_nodes_partition_zero_groups(self, seed):
        """Zero summaries and group leaves together account for every
        group exactly once."""
        _dom, table, counts = random_instance(seed)
        h = PrunedHierarchy(table, counts)
        zero_total = sum(p.n_groups for p in h.nodes if p.kind == "zero")
        group_total = sum(1 for p in h.nodes if p.kind == "group")
        assert zero_total + group_total == len(table)
        assert group_total == int((counts > 0).sum())

    @pytest.mark.parametrize("seed", range(10))
    def test_children_disjoint(self, seed):
        _dom, table, counts = random_instance(seed)
        h = PrunedHierarchy(table, counts)
        for p in h.nodes:
            if not p.is_leaf:
                lr = table.domain.uid_range(p.left.node)
                rr = table.domain.uid_range(p.right.node)
                assert lr[1] <= rr[0]  # ordered, disjoint
                assert UIDDomain.is_ancestor(p.node, p.left.node)
                assert UIDDomain.is_ancestor(p.node, p.right.node)

    def test_density(self, small_hierarchy):
        root = small_hierarchy.root
        assert root.density == pytest.approx(root.tuples / root.n_groups)

    def test_group_counts_below(self, small_hierarchy):
        h = small_hierarchy
        got = h.group_counts_below(h.root)
        assert got.sum() == pytest.approx(h.total_tuples)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_hierarchy_size_linear_in_nonzero(seed):
    """|pruned nodes| is O(nonzero groups x height) and every node is
    either a leaf or has two children (no unary chains survive unless
    they carry zero attachments)."""
    rng = np.random.default_rng(seed)
    height = int(rng.integers(2, 8))
    dom = UIDDomain(height)
    table = GroupTable(dom, random_cut(rng, height))
    counts = rng.integers(0, 5, len(table)).astype(float)
    h = PrunedHierarchy(table, counts)
    nonzero = int((counts > 0).sum())
    if nonzero:
        assert len(h.nodes) <= 2 * nonzero * (height + 1)
    for p in h.nodes:
        assert p.is_leaf or (p.left is not None and p.right is not None)


# ---------------------------------------------------------------------------
# The array construction against the node-by-node reference builder
# ---------------------------------------------------------------------------
def _assert_matches_reference(table, counts):
    """Field for field: postorder node ids, kinds, children, group
    counts, group columns, and tuple totals bit for bit."""
    want = reference_hierarchy(table, counts)
    h = PrunedHierarchy(table, counts)
    got = h.nodes
    assert len(h) == len(got) == len(want)
    for w, g in zip(want, got):
        assert (g.index, g.node, g.kind) == (w.index, w.node, w.kind)
        assert (g.n_groups, g.n_nonzero) == (w.n_groups, w.n_nonzero)
        assert g.group_index == w.group_index
        assert np.float64(g.tuples).tobytes() == np.float64(w.tuples).tobytes()
        for gc, wc in ((g.left, w.left), (g.right, w.right),
                       (g.parent, w.parent)):
            assert (gc is None) == (wc is None)
            if wc is not None:
                assert gc.index == wc.index
    # The arrays say the same as the nodes they were expanded into.
    a = h.arrays
    assert a.node_id.tolist() == [w.node for w in want]
    assert a.n_groups.tolist() == [w.n_groups for w in want]
    assert h.tuples.tobytes() == np.array([w.tuples for w in want]).tobytes()
    for w in want:
        lo, hi = table.domain.uid_range(w.node)
        first = int(np.searchsorted(table.starts, lo))
        assert a.first_group[w.index] == first
        assert a.size[w.index] == sum(1 for _ in _subtree(w))
    return h


def _subtree(p):
    yield p
    for c in p.children():
        yield from _subtree(c)


@st.composite
def _tables(draw, max_height=12):
    """A random group table (possibly leaving parts of the domain
    uncovered) with random, partly zero, fractional counts."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    height = draw(st.integers(0, max_height))
    dom = UIDDomain(height)
    nodes = random_cut(rng, height, stop=draw(st.floats(0.05, 0.9)))
    if draw(st.booleans()):  # drop groups: the table no longer covers
        keep = rng.random(len(nodes)) < draw(st.floats(0.1, 1.0))
        nodes = [v for v, k in zip(nodes, keep) if k] or nodes[:1]
    table = GroupTable(dom, nodes)
    counts = rng.random(len(table)) * draw(st.sampled_from([1.0, 30.0, 1e9]))
    counts[rng.random(len(table)) < draw(st.floats(0.0, 1.0))] = 0.0
    return table, counts


class TestReferenceBuilder:
    @settings(max_examples=150, deadline=None)
    @given(_tables())
    def test_random_tables(self, case):
        _assert_matches_reference(*case)

    @settings(max_examples=40, deadline=None)
    @given(_tables(), st.sampled_from(["none", "one", "all"]))
    def test_extreme_supports(self, case, support):
        table, counts = case
        counts = counts.copy()
        if support == "none":
            counts[:] = 0.0
        elif support == "one":
            keep = int(np.argmax(counts)) if counts.any() else 0
            counts[np.arange(counts.size) != keep] = 0.0
            counts[keep] = max(counts[keep], 1.5)
        else:
            counts = counts + 0.25
        h = _assert_matches_reference(table, counts)
        assert h.num_nonzero_groups == int(np.count_nonzero(counts))
        assert h.num_groups == len(table)

    @pytest.mark.parametrize("height", [32, 60])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
    def test_deep_domains(self, height, seed, n):
        """Sparse groups deep in a 2^32 (IPv4-sized) or 2^60 identifier
        space: node ids far beyond 2^32 and long compressed paths; past
        height 56 the postorder sort takes its two-key path."""
        rng = np.random.default_rng(seed)
        dom = UIDDomain(height)
        depths = rng.integers(height - 8, height + 1, n)
        nodes = {
            int(dom.node(int(d), int(rng.integers(0, 1 << int(d)))))
            for d in depths
        }
        # Keep a nonoverlapping subset (drop any node under another).
        chosen = []
        for v in sorted(nodes, key=UIDDomain.depth):
            if not any(UIDDomain.is_ancestor(u, v) for u in chosen):
                chosen.append(v)
        table = GroupTable(dom, chosen)
        counts = rng.integers(0, 4, len(table)).astype(float) * 1.1
        counts[0] = 2.2
        h = _assert_matches_reference(table, counts)
        assert int(h.arrays.node_id.max()) >= 1 << (height - 8)

    def test_single_group_covering_the_domain(self):
        dom = UIDDomain(5)
        table = GroupTable(dom, [1])
        for counts in (np.zeros(1), np.array([3.0])):
            h = _assert_matches_reference(table, counts)
            assert len(h) == 1
