"""The pruned UID hierarchy the dynamic programs run on.

The virtual hierarchy over a realistic identifier domain (e.g. ``2**32``
IPv4 addresses) is astronomically large, but the paper's algorithms
only ever examine nodes that are group nodes or their ancestors
(Section 3.2.2), and the sparse-group refinement (Section 4.3) reduces
that further to the *nonzero* groups plus bookkeeping for empty
regions.  :class:`PrunedHierarchy` materializes exactly that structure:

* a **group leaf** for every group with a nonzero count in the current
  window;
* a **branch node** for every virtual node where the induced tree
  forks, *and* for every virtual node on a compressed path that has a
  nonempty all-zero sibling subtree hanging off it;
* a **zero node** summarizing each maximal all-zero sibling subtree as
  a single ``(node, group count)`` pair.

Keeping the zero-sibling attachment points is what makes the pruned
tree *exact*: a bucket placed at any virtual node is equivalent (same
covered groups, same covered tuples, same single-identifier cost) to a
bucket at the nearest retained descendant, so optimizing over the
pruned tree optimizes over the full virtual hierarchy.  Because group
subtrees never partially overlap hierarchy subtrees, every zero-count
group falls in exactly one zero node, and empty regions contribute to
any error metric in O(1) via ``PenaltyMetric.repeated_penalty``.

The hierarchy is built as flat postorder arrays (:class:`HierarchyArrays`)
in a few vectorized passes, O(height) of them; :class:`PNode` objects
exist only for the algorithms that walk nodes one by one and are
created on first access to :attr:`PrunedHierarchy.nodes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .domain import ROOT
from .groups import GroupTable

__all__ = ["PNode", "PrunedHierarchy", "HierarchyArrays", "phase_slices"]

#: Node kinds, indexed by the codes in :attr:`HierarchyArrays.kind`.
KIND_NAMES = ("group", "zero", "branch")
GROUP, ZERO, BRANCH = 0, 1, 2


class PNode:
    """A node of the pruned hierarchy.

    Attributes
    ----------
    node:
        Virtual-hierarchy node id this pruned node is anchored at.
    kind:
        ``"group"`` (nonzero group leaf), ``"zero"`` (summary of an
        all-zero subtree) or ``"branch"``.
    left, right:
        Pruned children, ordered by identifier range (either may be
        ``None`` only for leaves).
    n_groups:
        Total number of lookup-table groups in the subtree of ``node``.
    n_nonzero:
        Number of those groups with a nonzero count in this window.
    tuples:
        Total tuple count below ``node`` in this window.
    group_index:
        For group leaves, the group's index in the
        :class:`~repro.core.groups.GroupTable`; ``None`` otherwise.
    index:
        Postorder position within the hierarchy (children precede
        parents); assigned by :class:`PrunedHierarchy`.
    """

    __slots__ = (
        "node",
        "kind",
        "left",
        "right",
        "parent",
        "n_groups",
        "n_nonzero",
        "tuples",
        "group_index",
        "index",
    )

    def __init__(
        self,
        node: int,
        kind: str,
        n_groups: int = 0,
        n_nonzero: int = 0,
        tuples: float = 0.0,
        group_index: Optional[int] = None,
        index: int = -1,
    ) -> None:
        self.node = node
        self.kind = kind
        self.left: Optional[PNode] = None
        self.right: Optional[PNode] = None
        self.parent: Optional[PNode] = None
        self.n_groups = n_groups
        self.n_nonzero = n_nonzero
        self.tuples = tuples
        self.group_index = group_index
        self.index = index

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    @property
    def n_zero_groups(self) -> int:
        """Groups below this node with zero count in this window."""
        return self.n_groups - self.n_nonzero

    @property
    def density(self) -> float:
        """Tuples per group below this node — the uniformity estimate a
        bucket anchored here assigns to each of its groups."""
        if self.n_groups == 0:
            return 0.0
        return self.tuples / self.n_groups

    def children(self) -> Iterator["PNode"]:
        if self.left is not None:
            yield self.left
        if self.right is not None:
            yield self.right

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PNode({self.kind} @ {self.node}, groups={self.n_groups}, "
            f"nonzero={self.n_nonzero}, tuples={self.tuples:g})"
        )


@dataclass(eq=False)
class HierarchyArrays:
    """Flat postorder structure of one pruned hierarchy.

    Every array is indexed by postorder position (children precede
    parents, left subtrees precede right ones, the root is last).
    ``left``/``right``/``parent`` are postorder indices (-1 where
    absent); ``size`` is the subtree node count, so node ``i``'s
    subtree is the contiguous interval ``[i - size[i] + 1, i]``;
    ``node_id`` is the virtual node, ``kind`` the :data:`KIND_NAMES`
    code and ``group`` the group leaf's count column (-1 for branch and
    zero nodes); the groups inside node ``i``'s range are the count
    columns ``first_group[i] : first_group[i] + n_groups[i]``.
    ``depth`` counts pruned ancestors, ``phase`` is the subtree height
    (0 at leaves), and ``order`` lists the internal nodes sorted by
    phase (``order_phase`` alongside) — a bottom-up schedule in which
    every node's children sit in strictly earlier phases.  The ``leaf_*`` arrays describe the leaf slots: leaves in
    postorder are slots ``0, 1, ...``, node ``i``'s leaves are slots
    ``leaf_lo[i]:leaf_hi[i]``, ``leaf_group`` is each slot's count
    column (-1 for zero summaries) and ``leaf_weight`` the number of
    groups it stands for (1 for a group leaf).

    All of it depends only on *which* groups are nonzero, never on the
    counts themselves, so two windows with the same nonzero support
    have equal arrays.
    """

    left: np.ndarray
    right: np.ndarray
    parent: np.ndarray
    node_id: np.ndarray
    kind: np.ndarray
    n_groups: np.ndarray
    n_nonzero: np.ndarray
    group: np.ndarray
    first_group: np.ndarray
    size: np.ndarray
    depth: np.ndarray
    phase: np.ndarray
    order: np.ndarray
    order_phase: np.ndarray
    leaf_lo: np.ndarray
    leaf_hi: np.ndarray
    leaf_group: np.ndarray
    leaf_weight: np.ndarray


def phase_slices(order: np.ndarray, order_phase: np.ndarray):
    """Yield the slice of ``order`` for each phase, ascending — every
    node's children belong to a strictly earlier slice."""
    pos = 0
    total = order.size
    while pos < total:
        h = order_phase[pos]
        end = pos + int(np.searchsorted(order_phase[pos:], h, side="right"))
        yield order[pos:end]
        pos = end


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Exact ``int.bit_length`` of nonnegative int64 values: ``frexp``
    of each 32-bit half, which float64 holds exactly."""
    high = x >> 32
    return np.where(
        high > 0,
        np.frexp(high)[1] + 32,
        np.frexp(x & 0xFFFFFFFF)[1],
    ).astype(np.int64)


def _ranges(sizes: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s)`` for each ``s`` in ``sizes``."""
    total = int(sizes.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    return np.arange(total, dtype=np.int64) - np.repeat(starts, sizes)


class PrunedHierarchy:
    """The induced hierarchy over nonzero groups, with zero summaries.

    Parameters
    ----------
    table:
        The lookup table defining the group subtrees.
    counts:
        Per-group counts for the window being summarized, indexed by
        group index (as produced by ``GroupTable.counts_from_uids``).

    Attributes
    ----------
    arrays:
        The postorder structure (:class:`HierarchyArrays`).
    tuples:
        Per-node tuple totals in postorder; an internal node's total is
        its children's totals added left + right.
    densities:
        Per-node ``tuples / n_groups`` (the uniform estimate a bucket at
        the node assigns each of its groups).
    leaf_actual:
        Per-leaf-slot counts (0 for zero summaries).
    """

    def __init__(self, table: GroupTable, counts: Sequence[float]) -> None:
        self.table = table
        self.domain = table.domain
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != (len(table),):
            raise ValueError(
                f"expected {len(table)} group counts, got shape {counts.shape}"
            )
        if not np.all(np.isfinite(counts)):
            raise ValueError("group counts must be finite")
        if np.any(counts < 0):
            raise ValueError("group counts must be nonnegative")
        self.counts = counts
        self._nodes: Optional[List[PNode]] = None
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _anchor_nodes(self, nz: np.ndarray, nz_prefix: np.ndarray):
        """Virtual node ids, depths, kinds and group columns of every
        pruned node, unordered, plus the group ranges of the leaves.

        Group leaves are the nonzero groups.  The forks are the LCAs of
        adjacent nonzero leaves (sorted by range start, those LCAs are
        exactly the virtual nodes whose two children both hold nonzero
        leaves).  Every other pruned node hangs off a path from a
        nonzero leaf to the root: a virtual ancestor ``p`` becomes a
        branch when its child off the path (the sibling ``s``) holds
        groups but no nonzero group, and ``s`` becomes a zero node.
        Each leaf walks only the part of its root path that its left
        neighbour did not, so every virtual ancestor is examined once,
        and the sibling group counts come from one batched
        ``searchsorted`` over the sibling ranges (``nz_prefix`` counts
        the nonzero groups among the first ``k``).
        """
        table = self.table
        height = self.domain.height
        if nz.size == 0:
            # Degenerate window: nothing observed.  A single zero node
            # at the root lets every algorithm return a trivial (and
            # exact) empty histogram.
            return (
                np.array([ROOT], dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                np.array([ZERO], dtype=np.int8),
                np.array([-1], dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                np.array([len(table)], dtype=np.int64),
            )
        leaf_ids = table.nodes[nz]
        starts = table.starts[nz]
        # Group ranges are powers of two, exact in float64.
        leaf_depth = height + 1 - np.frexp(table.ends[nz] - starts)[1]
        # LCA of adjacent leaves: the common prefix of their first uids.
        lca_depth = height - _bit_length(starts[:-1] ^ starts[1:])
        lca_ids = (np.int64(1) << lca_depth) + (
            starts[:-1] >> (height - lca_depth)
        )
        # Root-path segments: leaf i walks depths [first, leaf depth)
        # where everything at or above its left LCA is its neighbour's.
        first = np.concatenate(([0], lca_depth + 1))
        steps = np.maximum(leaf_depth - first, 0)
        owner = np.repeat(np.arange(nz.size), steps)
        d = np.repeat(first, steps) + _ranges(steps)  # parent depth
        child = leaf_ids[owner] >> (leaf_depth[owner] - d - 1)
        sib = child ^ 1
        shift = height - (d + 1)
        lo = (sib - (np.int64(1) << (d + 1))) << shift
        g_lo = np.searchsorted(table.starts, lo, side="left")
        g_hi = np.searchsorted(table.ends, lo + (np.int64(1) << shift),
                               side="right")
        keep = (g_hi > g_lo) & (nz_prefix[g_hi] == nz_prefix[g_lo])
        d = d[keep]
        ids = np.concatenate((leaf_ids, lca_ids, child[keep] >> 1, sib[keep]))
        depth = np.concatenate((leaf_depth, lca_depth, d, d + 1))
        kind = np.full(ids.size, BRANCH, dtype=np.int8)
        kind[: nz.size] = GROUP
        kind[ids.size - d.size :] = ZERO
        group = np.full(ids.size, -1, dtype=np.int64)
        group[: nz.size] = nz
        # Leaf group ranges (branches get theirs from their children).
        first = np.zeros(ids.size, dtype=np.int64)
        first[: nz.size] = nz
        first[ids.size - d.size :] = g_lo[keep]
        n_groups = np.zeros(ids.size, dtype=np.int64)
        n_groups[: nz.size] = 1
        n_groups[ids.size - d.size :] = (g_hi - g_lo)[keep]
        return ids, depth, kind, group, first, n_groups

    def _build(self) -> None:
        table = self.table
        height = self.domain.height
        counts = self.counts
        nonzero = counts > 0
        nz = np.flatnonzero(nonzero)
        nz_prefix = np.concatenate(([0], np.cumsum(nonzero)))
        ids, vdepth, kind, group, first_group, n_groups = self._anchor_nodes(
            nz, nz_prefix
        )
        span = np.int64(1) << (height - vdepth)
        hi = (ids - (np.int64(1) << vdepth) + 1) * span
        # Postorder: by range end, deeper first among nodes sharing one
        # (a descendant ends no later than its ancestor, and a subtree
        # to the left ends no later than anything to its right starts).
        # Below height 57 both keys fit one int64.
        if height < 57:
            perm = np.argsort((hi << 6) | (63 - vdepth))
        else:
            perm = np.lexsort((-vdepth, hi))
        ids, kind, group, hi = ids[perm], kind[perm], group[perm], hi[perm]
        first_group, n_groups = first_group[perm], n_groups[perm]
        lo = hi - span[perm]
        n = ids.size
        idx = np.arange(n, dtype=np.int64)
        # A subtree starts right after the last node ending at or
        # before its range start.
        size = idx - np.searchsorted(hi, lo, side="right") + 1
        internal = np.flatnonzero(size > 1)
        right = np.full(n, -1, dtype=np.int64)
        left = np.full(n, -1, dtype=np.int64)
        right[internal] = internal - 1
        left[internal] = internal - 1 - size[internal - 1]
        parent = np.full(n, -1, dtype=np.int64)
        parent[left[internal]] = internal
        parent[right[internal]] = internal
        is_group = group >= 0
        tuples = np.zeros(n)
        tuples[is_group] = counts[group[is_group]]
        n_nonzero = is_group.astype(np.int64)
        # Depth top-down, then phase and the subtree totals bottom-up,
        # one vectorized pass per level.  Each internal tuple total is
        # the one addition left + right, so it matches a recursive
        # build bit for bit.
        depth = np.zeros(n, dtype=np.int64)
        levels = []
        level = np.array([n - 1], dtype=np.int64)
        while level.size:
            level = level[left[level] >= 0]
            levels.append(level)
            level = np.concatenate((left[level], right[level]))
            depth[level] = len(levels)
        phase = np.zeros(n, dtype=np.int64)
        for level in reversed(levels):
            li, ri = left[level], right[level]
            phase[level] = np.maximum(phase[li], phase[ri]) + 1
            tuples[level] = tuples[li] + tuples[ri]
            n_groups[level] = n_groups[li] + n_groups[ri]
            n_nonzero[level] = n_nonzero[li] + n_nonzero[ri]
            first_group[level] = first_group[li]
        order = internal[np.argsort(phase[internal], kind="stable")]
        leaf = size == 1
        leaf_hi = np.cumsum(leaf)
        leaf_lo = (leaf_hi - leaf)[idx - size + 1]
        leaf_group = group[leaf]
        leaf_weight = np.where(
            leaf_group >= 0, 1.0, n_groups[leaf].astype(np.float64)
        )
        self.arrays = HierarchyArrays(
            left=left, right=right, parent=parent, node_id=ids,
            kind=kind, n_groups=n_groups, n_nonzero=n_nonzero,
            group=group, first_group=first_group, size=size,
            depth=depth, phase=phase,
            order=order, order_phase=phase[order],
            leaf_lo=leaf_lo, leaf_hi=leaf_hi, leaf_group=leaf_group,
            leaf_weight=leaf_weight,
        )
        self.tuples = tuples
        self.leaf_actual = np.where(
            leaf_group >= 0, counts[np.maximum(leaf_group, 0)], 0.0
        )
        densities = np.zeros(n)
        np.divide(tuples, n_groups, out=densities, where=n_groups > 0)
        self.densities = densities

    def _make_nodes(self) -> List[PNode]:
        a = self.arrays
        names = KIND_NAMES
        nodes = [
            PNode(
                node, names[k], g, nnz, t, None if gi < 0 else gi, i
            )
            for i, (node, k, g, nnz, t, gi) in enumerate(zip(
                a.node_id.tolist(), a.kind.tolist(), a.n_groups.tolist(),
                a.n_nonzero.tolist(), self.tuples.tolist(),
                a.group.tolist(),
            ))
        ]
        for i, li, ri in zip(
            a.order.tolist(), a.left[a.order].tolist(),
            a.right[a.order].tolist(),
        ):
            p, lc, rc = nodes[i], nodes[li], nodes[ri]
            p.left = lc
            p.right = rc
            lc.parent = p
            rc.parent = p
        return nodes

    # ------------------------------------------------------------------
    # Facts
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[PNode]:
        """Every pruned node as a :class:`PNode`, in postorder (created
        on first access; the array-based algorithms never ask)."""
        nodes = self._nodes
        if nodes is None:
            nodes = self._nodes = self._make_nodes()
        return nodes

    @property
    def root(self) -> PNode:
        return self.nodes[-1]

    @property
    def leaves(self) -> List[PNode]:
        """The group leaves, in postorder."""
        return [p for p in self.nodes if p.kind == "group"]

    def __len__(self) -> int:
        return int(self.arrays.node_id.size)

    @property
    def num_nonzero_groups(self) -> int:
        return int(self.arrays.n_nonzero[-1])

    @property
    def num_groups(self) -> int:
        """Groups below the root — every group of the table."""
        return int(self.arrays.n_groups[-1])

    @property
    def total_tuples(self) -> float:
        return float(self.tuples[-1])

    def max_useful_buckets(self) -> int:
        """An upper bound on the number of buckets that can still reduce
        error: one per nonzero group plus one per zero summary."""
        return int(self.arrays.leaf_group.size)

    def group_counts_below(self, pnode: PNode) -> np.ndarray:
        """Counts of every group (including zeros) below ``pnode``, in
        group-index order.  O(groups below); used by evaluators and
        tests, not by the dynamic programs."""
        idx = self.table.group_indices_below(pnode.node)
        return self.counts[idx]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PrunedHierarchy({len(self)} nodes, "
            f"{self.num_nonzero_groups} nonzero groups, "
            f"{self.num_groups} total groups)"
        )
