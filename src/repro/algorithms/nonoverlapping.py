"""Optimal nonoverlapping partitioning functions (paper Section 3.2.2).

The bucket nodes of a nonoverlapping function form a cut of the UID
hierarchy (Figure 3).  The dynamic program fills::

    E[i, B] = grperr(i)                                   if B == 1
            = min over c of E[left, c] (+) E[right, B-c]  otherwise

bottom-up over the pruned hierarchy.  ``grperr(i)`` is the error of
estimating every group below ``i`` at ``i``'s density — the error of
making ``i`` a single bucket.  The table at the root yields the optimal
error for *every* budget up to the requested one in a single run.

The pruned hierarchy retains the attachment points of all-zero sibling
subtrees, so cuts that isolate empty regions (which then cost nothing
to transmit — their buckets are inferred, Section 4.3) are part of the
search space and the result is optimal over the full virtual hierarchy.
"""

from __future__ import annotations

from typing import Dict, List, MutableMapping, Optional

import numpy as np

from ..core.errors import PenaltyMetric
from ..core.hierarchy import HierarchyArrays, PrunedHierarchy, phase_slices
from ..core.partition import Bucket, NonoverlappingPartitioning
from ..obs import span
from .base import INF, ConstructionResult, DPContext
from .kernels import _positive_merge_batch, knapsack_merge

__all__ = ["build_nonoverlapping"]


def build_nonoverlapping(
    hierarchy: PrunedHierarchy,
    metric: PenaltyMetric,
    budget: int,
    low_memory: bool = False,
    memo=None,
) -> ConstructionResult:
    """Construct the optimal nonoverlapping partitioning function.

    Parameters
    ----------
    hierarchy:
        Pruned hierarchy of the window being summarized.
    metric:
        The distributive error metric to minimize.
    budget:
        Maximum number of histogram buckets ``b``.
    low_memory:
        Apply the paper's Section 4.4 space optimization (after Guha):
        keep no per-node choice tables at all — child error tables are
        dropped as soon as their parent consumes them — and reconstruct
        bucket sets by re-running the DP on the two subtrees of each
        chosen split.  Same optimum; reconstruction costs an extra
        O(depth) factor, which is why it is opt-in.
    memo:
        A :class:`~repro.algorithms.incremental.NonoverlappingSession`
        for subtree-memoized rebuilds; its sweep replaces the full one
        (reusing clean-subtree tables, re-merging only dirty nodes)
        and is bit-identical to it.  Incompatible with ``low_memory``,
        which keeps none of the arrays the memo reuses.

    Returns
    -------
    ConstructionResult
        ``result.curve[B]`` is the optimal error for every ``B`` up to
        the budget; ``result.function_at(B)`` materializes the cut.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if memo is not None and low_memory:
        raise ValueError("incremental rebuilds require split tables; "
                         "low_memory drops them")
    ctx = DPContext(hierarchy, metric)
    root = len(hierarchy) - 1
    with span(
        "dp.nonoverlapping.sweep", budget=budget,
        nodes=len(hierarchy), low_memory=low_memory,
    ) as sp:
        if memo is not None:
            root_table, splits = memo.sweep(ctx, budget)
        else:
            root_table, splits = _sweep(
                ctx, root, budget, keep_splits=not low_memory
            )
        sp.annotate(root_entries=int(len(root_table)) - 1)
    curve = np.full(budget + 1, INF)
    upto = min(budget, len(root_table) - 1)
    curve[1 : upto + 1] = ctx.finalize_curve(root_table[1 : upto + 1])
    # Error is nonincreasing in budget: extra buckets can't hurt, so
    # budgets beyond the hierarchy's capacity keep the best value.
    best = INF
    for b in range(1, budget + 1):
        best = min(best, curve[b])
        curve[b] = best

    def make_function(b: int) -> NonoverlappingPartitioning:
        b = min(b, upto)
        bucket_nodes: List[int] = []
        with span("dp.nonoverlapping.collect", budget=b) as sp:
            if low_memory:
                _collect_multipass(ctx, root, b, bucket_nodes)
            else:
                _collect(hierarchy.arrays, root, b, splits, bucket_nodes)
            sp.annotate(buckets=len(bucket_nodes))
        return NonoverlappingPartitioning(
            hierarchy.domain, [Bucket(v) for v in bucket_nodes]
        )

    return ConstructionResult(
        make_function=make_function,
        curve=curve,
        budget=budget,
        stats={"nodes": float(len(hierarchy))},
    )


def _leaf_table(ctx: DPContext, i: int) -> np.ndarray:
    """A leaf's table: one bucket at the leaf (0 for exact / empty
    leaves), zero buckets infeasible."""
    table = np.full(2, INF)
    table[1] = ctx.grperr_own(i)
    return table


def _sweep(ctx: DPContext, top: int, budget: int, keep_splits: bool):
    """One bottom-up DP pass over the subtree of node ``top``.

    Child error tables are freed as soon as their parent consumes them,
    so only the tables still waiting for a parent are live.  Split
    choices are retained only when ``keep_splits`` — dropping them is
    the Section 4.4 mode.
    """
    a = ctx.hierarchy.arrays
    if a.left[top] < 0:
        return _leaf_table(ctx, top), {}
    order = a.order
    if top < a.left.size - 1:  # a proper subtree: its internal nodes
        first = top - int(a.size[top]) + 1
        order = order[(order >= first) & (order <= top)]
    tables: Dict[int, np.ndarray] = {}
    splits: Optional[Dict[int, np.ndarray]] = {} if keep_splits else None
    merge_nodes(ctx, budget, order, tables, splits, release=True)
    return tables[top], splits


def _shared_split_cache():
    """A fresh cache of shared constant split arrays for the fast
    path's closed-form cases (contents depend only on case + size)."""
    shared: Dict[tuple, np.ndarray] = {}

    def _const_split(case: str, size: int) -> np.ndarray:
        key = (case, size)
        sp = shared.get(key)
        if sp is None:
            sp = np.empty(size, dtype=np.int32)
            sp[0] = -1
            sp[1] = -1
            if size > 2:
                if case == "rl":  # right child is the leaf
                    sp[2:] = np.arange(1, size - 1, dtype=np.int32)
                else:  # "lr": left child is the leaf, or leaf-leaf
                    sp[2:] = 1
            shared[key] = sp
        return sp

    return _const_split


def merge_nodes(
    ctx: DPContext,
    budget: int,
    targets: np.ndarray,
    tables: MutableMapping,
    splits: Optional[MutableMapping],
    release: bool,
) -> None:
    """Run the DP merge of every internal node in ``targets``.

    ``targets`` must be sorted by phase (subtree height), so each
    node's children are merged before it.  A child that is not a
    target must be a leaf (its table is virtual) or already hold its
    table in ``tables``: a full sweep merges every internal node, an
    incremental one passes only the dirty nodes and pre-fills the
    clean ones from its memo.  Each merged node's table lands in
    ``tables`` and its split choices in ``splits`` (unless ``splits``
    is ``None``); with ``release``, consumed child tables are dropped.

    The naive kernel mode runs the reference per-node merge; the
    batched modes run :func:`_merge_batched`, bit-identical to it.
    """
    if ctx.batched:
        _merge_batched(ctx, budget, targets, tables, splits, release)
        return
    a = ctx.hierarchy.arrays
    left, right = a.left, a.right
    for i in targets.tolist():
        li, ri = int(left[i]), int(right[i])
        lt = _leaf_table(ctx, li) if left[li] < 0 else tables[li]
        rt = _leaf_table(ctx, ri) if left[ri] < 0 else tables[ri]
        if release:
            tables[li] = tables[ri] = None
        table, split = knapsack_merge(lt, rt, budget, ctx.metric.combine)
        one_bucket = ctx.grperr_own(i)
        if one_bucket < table[1]:
            table[1] = one_bucket
            split[1] = -1  # sentinel: this node is the bucket
        tables[i] = table
        if splits is not None:
            splits[i] = split


def _merge_batched(
    ctx: DPContext,
    budget: int,
    targets: np.ndarray,
    tables: MutableMapping,
    splits: Optional[MutableMapping],
    release: bool,
) -> None:
    """Phase-batched merges (tables identical to the naive merge).

    Nonoverlapping tables have a fixed shape this exploits: entry 0 is
    ``inf`` (zero buckets are infeasible), entry 1 is the node's
    own-bucket error, and every deeper in-range entry is finite.  Leaf
    tables therefore never materialize — parents read the precomputed
    own-error array directly.  Targets are processed phase by phase
    and, within a phase, grouped by the shapes of their children's
    tables; each group is one stacked operation: leaf-leaf parents are
    a pure gather/combine over the own-error array, one-leaf merges a
    single broadcast combine over stacked inner tables, and
    internal-internal merges run through
    :func:`~repro.algorithms.kernels._positive_merge_batch` over the
    finite table tails.  Every row performs exactly the naive merge's
    surviving operations in the same order (the dropped candidates are
    all infinite), so entries and recorded splits match it bit for
    bit; split arrays for the closed-form cases are shared constants
    (their contents don't depend on the node).
    """
    own = ctx.own_errors()
    maximum = ctx.metric.combine == "max"
    a = ctx.hierarchy.arrays
    left_idx, right_idx = a.left, a.right
    leaf_mask = left_idx < 0
    keep_splits = splits is not None
    # Table lengths: leaves count as (virtual) 2-entry tables, targets
    # get theirs phase by phase below, and any other internal child is
    # already in ``tables``.
    tlen = np.where(leaf_mask, 2, 0)
    children = np.concatenate((left_idx[targets], right_idx[targets]))
    is_target = np.zeros(leaf_mask.size, dtype=bool)
    is_target[targets] = True
    for c in children[~leaf_mask[children] & ~is_target[children]].tolist():
        tlen[c] = len(tables[c])
    _const_split = _shared_split_cache()

    def _take(ci: int) -> np.ndarray:
        t = tables[ci]
        if release:
            tables[ci] = None
        return t

    def _store(nodes: np.ndarray, block: np.ndarray, split) -> None:
        for k, i in enumerate(nodes.tolist()):
            tables[i] = block[k]
            if keep_splits:
                splits[i] = split if split.ndim == 1 else split[k]

    for idx_h in phase_slices(targets, a.phase[targets]):
        li = left_idx[idx_h]
        ri = right_idx[idx_h]
        tlen[idx_h] = np.minimum(budget, tlen[li] + tlen[ri] - 2) + 1
        lleaf = leaf_mask[li]
        rleaf = leaf_mask[ri]

        # Leaf-leaf parents: closed form over the own-error array.
        both = lleaf & rleaf
        if both.any():
            g = idx_h[both]
            size = min(budget, 2) + 1
            block = np.empty((g.size, size))
            block[:, 0] = INF
            block[:, 1] = own[g]
            if size == 3:
                lv = own[li[both]]
                rv = own[ri[both]]
                block[:, 2] = np.maximum(lv, rv) if maximum else lv + rv
            _store(g, block, _const_split("lr", size))

        # One-leaf merges, grouped by inner-table length and side.
        one = lleaf ^ rleaf
        if one.any():
            g = idx_h[one]
            r_is_leaf = rleaf[one]
            inner_idx = np.where(r_is_leaf, li[one], ri[one])
            edge_idx = np.where(r_is_leaf, ri[one], li[one])
            key = tlen[inner_idx] * 2 + r_is_leaf
            for u in np.unique(key).tolist():
                sel = key == u
                gi = g[sel]
                inner_len = int(u // 2)
                right_leaf = bool(u & 1)
                size = min(budget, inner_len) + 1
                buf = np.empty((gi.size, inner_len))
                for k, ii in enumerate(inner_idx[sel].tolist()):
                    buf[k] = _take(ii)
                edge = own[edge_idx[sel]]
                block = np.empty((gi.size, size))
                block[:, 0] = INF
                block[:, 1] = own[gi]
                if size > 2:
                    seg = buf[:, 1 : size - 1]
                    e = edge[:, None]
                    block[:, 2:] = np.maximum(seg, e) if maximum else seg + e
                _store(
                    gi, block, _const_split("rl" if right_leaf else "lr", size)
                )

        # Internal-internal merges, grouped by child-table shapes.
        both_int = ~(lleaf | rleaf)
        if both_int.any():
            g = idx_h[both_int]
            gl = li[both_int]
            gr = ri[both_int]
            key = tlen[gl] * (2 * budget + 4) + tlen[gr]
            for u in np.unique(key).tolist():
                sel = key == u
                gi = g[sel]
                m = int(u // (2 * budget + 4))
                nn = int(u % (2 * budget + 4))
                size = min(budget, m + nn - 2) + 1
                K = gi.size
                bl = np.empty((K, m - 1))
                br = np.empty((K, nn - 1))
                for k, ii in enumerate(gl[sel].tolist()):
                    bl[k] = _take(ii)[1:]
                for k, ii in enumerate(gr[sel].tolist()):
                    br[k] = _take(ii)[1:]
                block = np.empty((K, size))
                block[:, 0] = INF
                block[:, 1] = own[gi]
                choice = None
                if size > 2:
                    vals, choice = _positive_merge_batch(
                        bl, br, size - 2, maximum, want_choice=keep_splits
                    )
                    block[:, 2:] = vals
                spblock = None
                if keep_splits:
                    spblock = np.empty((K, size), dtype=np.int32)
                    spblock[:, 0] = -1
                    spblock[:, 1] = -1
                    if size > 2:
                        spblock[:, 2:] = choice
                _store(gi, block, spblock)


def _collect_multipass(
    ctx: DPContext, top: int, b: int, out: List[int]
) -> None:
    """Section 4.4 reconstruction: re-derive the split at each node by
    re-running the DP on its two subtrees, then recurse.

    Each subtree is re-swept with the budget ``b`` actually granted to
    it, not the original top-level budget: table entries up to ``b``
    are unaffected by the tighter cap (an allocation of ``c <= B <= b``
    buckets never consults entries beyond ``b``), so the recovered
    splits are identical while the low-memory reconstruction stops
    filling table columns no caller can reference.
    """
    a = ctx.hierarchy.arrays
    stack = [(top, b)]
    while stack:
        i, b = stack.pop()
        li, ri = int(a.left[i]), int(a.right[i])
        if li < 0 or b == 1:
            out.append(int(a.node_id[i]))
            continue
        left_table, _ = _sweep(ctx, li, b, keep_splits=False)
        right_table, _ = _sweep(ctx, ri, b, keep_splits=False)
        merged, split = knapsack_merge(
            left_table, right_table, b, ctx.metric.combine
        )
        b = min(b, len(merged) - 1)
        if b == 1:  # only the single-bucket option remains
            out.append(int(a.node_id[i]))
            continue
        c = int(split[b])
        stack.append((li, c))
        stack.append((ri, b - c))


def _collect(
    a: HierarchyArrays,
    top: int,
    b: int,
    splits,
    out: List[int],
) -> None:
    """Walk the recorded split choices (``splits[i]`` for internal node
    ``i``) to materialize the cut for budget ``b``."""
    stack = [(top, b)]
    while stack:
        i, b = stack.pop()
        li = int(a.left[i])
        if li < 0 or b == 1:
            out.append(int(a.node_id[i]))
            continue
        split = splits[i]
        b = min(b, len(split) - 1)
        c = int(split[b])
        if c == -1:  # single-bucket choice recorded at B == 1 only
            out.append(int(a.node_id[i]))
            continue
        stack.append((li, c))
        stack.append((int(a.right[i]), b - c))
