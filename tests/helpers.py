"""Shared generators for the test suite (importable, unlike conftest)."""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro import GroupTable, UIDDomain
from repro.core.domain import ROOT
from repro.core.hierarchy import PNode

ALL_METRICS = ["rms", "average", "avg_relative", "max_relative"]


def random_cut(
    rng: np.random.Generator, height: int, stop: float = 0.5
) -> List[int]:
    """A random covering nonoverlapping cut of a height-``height``
    domain (used as random group nodes)."""
    out: List[int] = []
    stack = [1]
    while stack:
        node = stack.pop()
        if UIDDomain.depth(node) >= height or rng.random() < stop:
            out.append(node)
        else:
            stack.extend(UIDDomain.children(node))
    return out


def random_instance(
    seed: int,
    height_range: Tuple[int, int] = (2, 5),
    zero_fraction: float = 0.4,
    max_count: int = 30,
) -> Tuple[UIDDomain, GroupTable, np.ndarray]:
    """A random small (domain, table, counts) problem instance."""
    rng = np.random.default_rng(seed)
    height = int(rng.integers(*height_range))
    dom = UIDDomain(height)
    groups = random_cut(rng, height)
    table = GroupTable(dom, groups)
    counts = rng.integers(0, max_count, len(table)).astype(float)
    counts[rng.random(len(table)) < zero_fraction] = 0.0
    if counts.sum() == 0:
        counts[0] = float(max_count // 2 + 1)
    return dom, table, counts


# ---------------------------------------------------------------------------
# Reference pruned-hierarchy builder
# ---------------------------------------------------------------------------
def reference_hierarchy(table: GroupTable, counts: np.ndarray) -> List[PNode]:
    """The pruned hierarchy built node by node, in postorder (root
    last): the oracle the array construction in
    :class:`~repro.core.hierarchy.PrunedHierarchy` is tested against.

    Recurses over the sorted nonzero groups, anchoring each slice at
    the LCA of its ends and splitting it at the anchor's midpoint, then
    walks every compressed path upwards, inserting a branch plus a zero
    summary wherever a sibling subtree holds groups.
    """
    domain = table.domain
    counts = np.asarray(counts, dtype=np.float64)

    def attach(parent: PNode, left: PNode, right: PNode) -> None:
        parent.left = left
        parent.right = right
        left.parent = parent
        right.parent = parent
        parent.n_groups = left.n_groups + right.n_groups
        parent.n_nonzero = left.n_nonzero + right.n_nonzero
        parent.tuples = left.tuples + right.tuples

    def wrap(sub: PNode, top: int) -> PNode:
        cur = sub
        child = sub.node
        while child != top:
            parent = UIDDomain.parent(child)
            sib = UIDDomain.sibling(child)
            z = table.groups_below(sib)
            if z > 0:
                zero = PNode(sib, "zero")
                zero.n_groups = z
                branch = PNode(parent, "branch")
                if sib < child:  # sibling covers the lower range
                    attach(branch, zero, cur)
                else:
                    attach(branch, cur, zero)
                cur = branch
            child = parent
        return cur

    def build_range(leaf_nodes, group_idx, lo, hi) -> PNode:
        if hi - lo == 1:
            leaf = PNode(leaf_nodes[lo], "group")
            g = group_idx[lo]
            leaf.group_index = g
            leaf.n_groups = 1
            leaf.n_nonzero = 1
            leaf.tuples = float(counts[g])
            return leaf
        anchor = UIDDomain.lca(leaf_nodes[lo], leaf_nodes[hi - 1])
        lo_uid, hi_uid = domain.uid_range(anchor)
        mid_uid = (lo_uid + hi_uid) // 2
        split = lo
        while split < hi and table.starts[group_idx[split]] < mid_uid:
            split += 1
        assert lo < split < hi, "LCA split produced an empty side"
        left_sub = wrap(
            build_range(leaf_nodes, group_idx, lo, split),
            UIDDomain.left_child(anchor),
        )
        right_sub = wrap(
            build_range(leaf_nodes, group_idx, split, hi),
            UIDDomain.right_child(anchor),
        )
        branch = PNode(anchor, "branch")
        attach(branch, left_sub, right_sub)
        return branch

    nonzero = np.nonzero(counts > 0)[0]
    if nonzero.size == 0:
        root = PNode(ROOT, "zero")
        root.n_groups = len(table)
    else:
        leaf_nodes = [int(table.nodes[g]) for g in nonzero]
        root = wrap(
            build_range(leaf_nodes, [int(g) for g in nonzero], 0,
                        len(leaf_nodes)),
            ROOT,
        )
    nodes = list(_postorder(root))
    for i, p in enumerate(nodes):
        p.index = i
    return nodes


def _postorder(root: PNode) -> Iterator[PNode]:
    stack: List[tuple] = [(root, False)]
    while stack:
        pnode, expanded = stack.pop()
        if expanded or pnode.is_leaf:
            yield pnode
        else:
            stack.append((pnode, True))
            if pnode.right is not None:
                stack.append((pnode.right, False))
            if pnode.left is not None:
                stack.append((pnode.left, False))
