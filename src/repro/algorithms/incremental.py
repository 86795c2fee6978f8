"""Subtree-memoized incremental DP rebuilds (ROADMAP item 2).

The paper leaves recalibration *policy* open; PR 5 answered "when"
with the drift detector, and this module answers "how much work" — a
rebuild should cost time proportional to the drift, not to ``|G|``.
The lever is the tree structure of the dynamic programs themselves:

* **Nonoverlapping.**  The table ``E[i, .]`` (and its recorded split
  choices) depends only on the *content* of ``i``'s pruned subtree —
  the leaf counts, the zero-summary weights and the subtree shape —
  plus the construction configuration (metric, budget, kernel mode).
  A subtree whose per-group counts did not change therefore
  contributes a bit-identical table to its parent's knapsack merge,
  so the whole subtree's tables and splits can be reused from the
  previous build and only the *dirty* nodes (ancestors of changed
  groups) re-run their merges.

* **Overlapping.**  The bucket-case table ``F[i, .]`` is independent
  of the enclosing ancestor (the property the LPM heuristic also
  exploits), so it memoizes per subtree exactly like the
  nonoverlapping table.  The conditioned tables ``E[i, ., j]`` depend
  on the subtree content *and* the ancestor ``j``'s density — but on
  nothing else about ``j``.  Dirtiness is monotone along any ancestor
  chain (a change below ``j`` is also below every ancestor of ``j``),
  so the dirty ancestors of a clean node are always a *prefix* of its
  root-first ancestor chain: rows conditioned on the clean suffix are
  copied from the memo and only the first ``D`` rows are re-merged —
  in one stacked kernel call, since batch rows are row-independent.

A pruned internal node's subtree content is a pure function of the
node's virtual id and the counts of the groups inside its identifier
range — which groups are nonzero fixes the branches and zero summaries
below it, and their counts fix every tuple total — so, for one group
table, a node is **clean** exactly when the previous build has a node
with the same id and no count in its group range moved.  That is one
vectorized test for every node: a prefix sum over the count diff
against the counts the memo was built from, read at each node's group
range, plus one ``searchsorted`` of the node ids into the previous
build's.  It holds whether or not the nonzero support changed, so the
nonoverlapping session has a single sweep: clean tables and splits are
carried over and every dirty node runs through the phase-batched merge
the full sweep uses.  The overlapping session patches its arena in
place and needs the previous postorder unchanged, so it recognizes an
unchanged support by a BLAKE2b *structure signature* over the nonzero
mask and otherwise starts cold — correct either way, because reuse is
an optimization over an identical computation.

A memo is only consulted when its configuration key (algorithm,
metric, budget, builder options, kernel mode) and its group table
match the rebuild's; the kernel mode is part of the key because
``suffstats`` curves are not bit-identical to the other modes'.
Because reused entries are the arrays an identical solve on identical
content produced, the incremental result — curve, argmin tie-breaks,
reconstructed bucket set — is **bit-identical to a from-scratch
build**.  ``tests/test_incremental.py`` property-tests this with zero
tolerance.

Each session also reports ``dirty_groups`` (groups whose count moved
since the counts the previous memo was built from — the warehouse
history the standing function used) alongside the subtree reuse
counters, so the drift signals of PR 5 (``quality.drift_score``,
occupancy skew) can corroborate what the rebuild actually re-solved.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import PenaltyMetric
from ..core.hierarchy import HierarchyArrays, PNode, PrunedHierarchy
from .base import INF, DPContext
from .kernels import kernel_mode

__all__ = [
    "memo_config_key",
    "memo_compatible",
    "supports_incremental",
    "new_session",
    "NonoverlappingMemo",
    "OverlappingMemo",
    "NonoverlappingSession",
    "OverlappingSession",
]

#: Algorithms with a subtree-memoized incremental path.  The LPM
#: heuristics rebuild through their own greedy passes and are cheap
#: enough that memoization has nothing to amortize.
INCREMENTAL_ALGORITHMS = ("nonoverlapping", "overlapping")


def _structure_signature(counts: np.ndarray) -> bytes:
    """BLAKE2b over the window's nonzero-support mask.

    The pruned hierarchy's shape (and therefore its postorder
    numbering) is a pure function of *which* groups are nonzero — the
    counts only set the ``tuples`` fields — so equal signatures mean
    node ``i`` of one build and node ``i`` of the other cover the same
    pruned subtree shape and differ at most in content.
    """
    mask = np.packbits(counts > 0)
    return hashlib.blake2b(mask.tobytes(), digest_size=16).digest()


def memo_config_key(
    algorithm: str, metric: PenaltyMetric, budget: int, options: Dict
) -> Tuple:
    """Everything besides subtree content that shapes the DP tables.

    The kernel mode is included because ``suffstats`` grperr values are
    only approximately equal to the other modes' — reusing curves
    across modes would silently break each mode's self-consistency.
    """
    return (
        algorithm,
        int(budget),
        repr(metric),
        kernel_mode(),
        tuple(sorted(options.items())),
    )


def memo_compatible(
    memo, algorithm: str, metric: PenaltyMetric, budget: int, options: Dict
) -> bool:
    """Whether a (possibly foreign) memo can seed a rebuild under this
    configuration.

    Sessions already discard memos whose config key or group table
    differs, so passing an incompatible memo is safe but pointless; this
    check lets a *shared* memo store (the serving layer's cross-tenant
    cache) avoid handing out memos that would contribute nothing.
    Config-compatible memos from a different tenant with the same table
    are sound to share: every reuse inside a session is guarded by the
    diff against the memo's own counts, and a node whose group range
    saw no change has bit-identical per-subtree DP state for a fixed
    configuration.
    """
    return (
        memo is not None
        and getattr(memo, "config", None)
        == memo_config_key(algorithm, metric, budget, options)
    )


def supports_incremental(algorithm: str, options: Dict) -> bool:
    """Whether the algorithm/options pair has an incremental path.

    ``low_memory`` nonoverlapping builds drop the split arrays the memo
    reuses, so they fall back to a full rebuild.
    """
    if algorithm not in INCREMENTAL_ALGORITHMS:
        return False
    if algorithm == "nonoverlapping" and options.get("low_memory"):
        return False
    return True


def _dirty_groups(
    old_counts: Optional[np.ndarray], counts: np.ndarray
) -> int:
    """Groups whose warehouse count changed since the previous build
    (all of them when there is no comparable previous build)."""
    if old_counts is None or old_counts.shape != counts.shape:
        return int(counts.shape[0])
    return int(np.count_nonzero(old_counts != counts))


def _changed_below(
    arrays: HierarchyArrays, old_counts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Per-node flags: some count in the node's group range changed.

    One prefix sum over the count diff, read at every node's group
    range — no per-node Python.
    """
    changed = np.concatenate(([0], np.cumsum(old_counts != counts)))
    first = arrays.first_group
    return changed[first + arrays.n_groups] > changed[first]


# ---------------------------------------------------------------------------
# Nonoverlapping: whole-subtree table + split memo
# ---------------------------------------------------------------------------
@dataclass
class NonoverlappingMemo:
    """All internal-node tables and splits of one build.

    ``tables``/``splits``/``own`` are indexed by the build's postorder,
    whose virtual node ids are ``node_id``; ``tables`` and ``splits``
    are ``None`` at leaves.  ``counts`` is the count vector the build
    saw — the baseline for the next rebuild's dirty diff — and
    ``table`` the fingerprint of the group table it was built over.
    """

    config: Tuple
    table: bytes
    counts: np.ndarray
    node_id: np.ndarray
    tables: List[Optional[np.ndarray]]
    splits: List[Optional[np.ndarray]]
    #: Per-node own-density errors of the build (batched modes only);
    #: the next rebuild copies the clean nodes' rows.
    own: Optional[np.ndarray] = None

    def index_of(self, node_id: np.ndarray) -> np.ndarray:
        """This build's postorder index of each virtual node id, -1
        where it had no such node."""
        by_id = np.argsort(self.node_id)
        ids = self.node_id[by_id]
        pos = np.minimum(np.searchsorted(ids, node_id), ids.size - 1)
        return np.where(ids[pos] == node_id, by_id[pos], -1)


class NonoverlappingSession:
    """One incremental nonoverlapping sweep.

    Created per rebuild with the previous build's memo (or ``None``);
    :meth:`sweep` is called by
    :func:`~repro.algorithms.nonoverlapping.build_nonoverlapping` in
    place of its full sweep, and :meth:`finish` hands back the memo for
    the *next* rebuild.
    """

    algorithm = "nonoverlapping"

    def __init__(
        self,
        hierarchy: PrunedHierarchy,
        config: Tuple,
        old: Optional[NonoverlappingMemo],
    ) -> None:
        table = hierarchy.table.fingerprint()
        if old is not None and (
            old.config != config
            or old.table != table
            or old.counts.shape != hierarchy.counts.shape
        ):
            old = None  # a reconfigured rebuild shares nothing
        self._hierarchy = hierarchy
        self._config = config
        self._table = table
        self._old = old
        self._result: Optional[NonoverlappingMemo] = None
        self.dirty_groups = _dirty_groups(
            None if old is None else old.counts, hierarchy.counts
        )
        #: Internal nodes whose merge was re-run (the dirty set).
        self.solved = 0
        #: Internal nodes whose table/split came from the memo.
        self.reused = 0

    # -- sweep -------------------------------------------------------------
    def sweep(self, ctx: DPContext, budget: int):
        """Memoized bottom-up sweep; tables and splits bit-identical to
        :func:`~repro.algorithms.nonoverlapping._sweep`.

        Clean nodes (see the module notes) take their table, split and
        own error from the previous build; every dirty internal node
        runs through :func:`~repro.algorithms.nonoverlapping.merge_nodes`,
        the full sweep's phase-batched merge.
        """
        from .nonoverlapping import _leaf_table, merge_nodes

        hierarchy = self._hierarchy
        a = hierarchy.arrays
        n = len(hierarchy)
        old = self._old
        if old is None:
            dirty = np.ones(n, dtype=bool)
            tables = [None] * n
            splits = [None] * n
        else:
            src = old.index_of(a.node_id)
            src[_changed_below(a, old.counts, hierarchy.counts)] = -1
            dirty = src < 0
            take = src.tolist()  # -1 picks the appended None
            old_tables = old.tables + [None]
            old_splits = old.splits + [None]
            tables = [old_tables[j] for j in take]
            splits = [old_splits[j] for j in take]
            if ctx.batched and old.own is not None:
                ctx.splice_own_errors(
                    old.own[src], np.flatnonzero(dirty)
                )
        solve = a.order[dirty[a.order]]
        self.solved = int(solve.size)
        self.reused = int(a.order.size) - self.solved
        merge_nodes(ctx, budget, solve, tables, splits, release=False)
        self._result = NonoverlappingMemo(
            config=self._config,
            table=self._table,
            counts=hierarchy.counts.copy(),
            node_id=a.node_id,
            tables=tables,
            splits=splits,
            own=ctx.own_errors() if ctx.batched else None,
        )
        root = n - 1
        if a.left[root] < 0:
            return _leaf_table(ctx, root), splits
        return tables[root], splits

    # -- lifecycle ---------------------------------------------------------
    def finish(self) -> NonoverlappingMemo:
        return self._result

    def stats(self) -> Dict[str, float]:
        total = self.solved + self.reused
        return {
            "dirty_subtrees": float(self.solved),
            "reused_subtrees": float(self.reused),
            "reused_fraction": (self.reused / total) if total else 0.0,
            "dirty_groups": float(self.dirty_groups),
        }


# ---------------------------------------------------------------------------
# Overlapping: per-node bucket case + conditioned row blocks
# ---------------------------------------------------------------------------
@dataclass
class _OVNodeEntry:
    """One internal (non-collapse) node's solve output.

    ``e2``/``flags_block``/``splits_block`` are the batched-mode
    conditioned-row blocks (row ``d`` is conditioned on the ancestor at
    depth ``d``); naive-mode entries keep them ``None`` and reuse only
    the ancestor-independent bucket case.
    """

    e_b: np.ndarray
    split_b: np.ndarray
    bucket_flag: np.ndarray
    sparse_at: Optional[int]
    e2: Optional[np.ndarray]
    flags_block: Optional[np.ndarray]
    splits_block: Optional[np.ndarray]


@dataclass
class _OVArena:
    """Contiguous DP-state arenas for one batched overlapping build.

    Node ``i``'s conditioned-row block (row ``d`` conditioned on the
    ancestor at depth ``d``) lives at arena rows
    ``row_start[i] : row_start[i] + depth[i]``, width ``blk_w[i]``;
    its ancestor-independent bucket case occupies ``eb[i, :size_b[i]]``
    (the tail is ``INF`` so stacked bucket-case overlays can compare
    full-width without a per-node length clamp — an ``INF`` candidate
    never wins a strict ``<``).  Widths, row offsets and the
    base/internal ``kind`` are all structural, so two same-structure
    builds address the arena identically — which is what lets a rebuild
    patch only the dirty-ancestor row prefix of each clean node *in
    place* with whole-array gathers and scatters instead of per-node
    Python.  In-place patching consumes the memo: after a rebuild the
    arena reflects the new counts, so a memo must only ever seed the
    *next* rebuild (replaying the identical transition is idempotent —
    every rewritten value is bit-identical — which is what benchmark
    repetition relies on).
    """

    row_start: np.ndarray  # (n + 1,) exclusive prefix sum of depths
    e2: np.ndarray         # (R, W) conditioned-row tables
    flags: np.ndarray      # (R, W) int8 reconstruction flags
    splits: np.ndarray     # (R, W) int32 non-bucket split choices
    eb: np.ndarray         # (n, W) bucket-case tables, INF-padded
    split_b: np.ndarray    # (n, W) int32 bucket-case split choices
    bflag: np.ndarray      # (n, W) int8 bucket/sparse flags
    sparse_at: np.ndarray  # (n,) int64 sparse-leaf node id, -1 = none
    size_b: np.ndarray     # (n,) int64 bucket-case table length
    blk_w: np.ndarray      # (n,) int64 conditioned-block width
    kind: np.ndarray       # (n,) int8: 0 unstored, 1 base, 2 internal


def _alloc_arena(depth: np.ndarray, width: int) -> _OVArena:
    n = depth.shape[0]
    row_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(depth, out=row_start[1:])
    rows = int(row_start[n])
    return _OVArena(
        row_start=row_start,
        e2=np.empty((rows, width)),
        flags=np.zeros((rows, width), dtype=np.int8),
        splits=np.full((rows, width), -1, dtype=np.int32),
        eb=np.full((n, width), INF),
        split_b=np.full((n, width), -1, dtype=np.int32),
        bflag=np.zeros((n, width), dtype=np.int8),
        sparse_at=np.full(n, -1, dtype=np.int64),
        size_b=np.zeros(n, dtype=np.int64),
        blk_w=np.zeros(n, dtype=np.int64),
        kind=np.zeros(n, dtype=np.int8),
    )


@dataclass
class OverlappingMemo:
    """One build's DP state, indexed by that build's postorder, plus
    the counts/support signature identifying it.  Batched builds store
    the contiguous :class:`_OVArena`; the naive reference mode keeps
    per-node entries (bucket case only).  The kernel mode is part of
    ``config``, so a memo is only ever consulted by its own mode."""

    config: Tuple
    table: bytes
    counts: np.ndarray
    structure_sig: bytes
    entries: Optional[List[Optional[_OVNodeEntry]]] = None
    arena: Optional[_OVArena] = None


class OverlappingSession:
    """One incremental overlapping solve.

    On a batched same-structure rebuild the DP never recurses into a
    clean subtree: a vectorized prepass re-conditions the
    dirty-ancestor row prefix of *every* clean node directly in the
    memo arena (rows conditioned on clean ancestors — always the
    suffix, because dirtiness is monotone up any ancestor chain — stay
    valid verbatim), and the recursion then only visits dirty nodes,
    adopting each maximal clean subtree as one arena view.  The naive
    reference mode keeps the per-node entry protocol and reuses only
    the ancestor-independent bucket case.  A support-set change starts
    a cold session: every node is dirty and a fresh memo is recorded
    for the next rebuild.
    """

    algorithm = "overlapping"

    def __init__(
        self,
        hierarchy: PrunedHierarchy,
        config: Tuple,
        old: Optional[OverlappingMemo],
    ) -> None:
        table = hierarchy.table.fingerprint()
        if old is not None and (old.config != config or old.table != table):
            old = None
        counts = hierarchy.counts
        self._config = config
        self._table = table
        self._sig = _structure_signature(counts)
        #: Whether this session records naive-mode entries instead of
        #: the batched arena (index 3 of the config key is the kernel
        #: mode — see :func:`memo_config_key`).
        self.naive = config[3] == "naive"
        self.dirty_groups = _dirty_groups(
            None if old is None else old.counts, counts
        )
        if (
            old is not None
            and old.structure_sig == self._sig
            and old.counts.shape == counts.shape
            and (old.entries is not None) == self.naive
            and (self.naive or old.arena is not None)
        ):
            #: Per-node dirty flags; the DP also folds these into its
            #: running dirty-ancestor counts.
            self.dirty = _changed_below(hierarchy.arrays, old.counts, counts)
        else:
            self.dirty = np.ones(len(hierarchy), dtype=bool)
            old = None
        self._arrays = hierarchy.arrays
        #: Whether the old memo survived with an identical pruned
        #: support set — the precondition for the skip-clean fast path.
        self.same_structure = old is not None
        self._old = old
        self._counts = counts
        self.arena: Optional[_OVArena] = (
            old.arena if old is not None and not self.naive else None
        )
        self._entries: Optional[List[Optional[_OVNodeEntry]]] = (
            [None] * len(hierarchy) if self.naive else None
        )
        self.solved = 0  # internal bucket-case merges re-run
        self.reused = 0  # internal nodes reusing their memo entry
        self.rows_solved = 0
        self.rows_reused = 0

    @property
    def arrays(self) -> HierarchyArrays:
        return self._arrays

    # -- arena protocol (batched modes) ------------------------------------
    def ensure_arena(self, width: int) -> _OVArena:
        """The carried-over arena, or a fresh one sized ``width`` (=
        ``max subtree cap + 1``, a structural constant for a fixed
        configuration) on a cold session."""
        if self.arena is None:
            self.arena = _alloc_arena(self._arrays.depth, width)
        return self.arena

    def store_base(
        self,
        index: int,
        depth: int,
        e_b: np.ndarray,
        bucket_flag: np.ndarray,
        sparse_at: Optional[int],
        e2: np.ndarray,
        flags2: np.ndarray,
    ) -> None:
        """Record a visited base node (leaf or sparse collapse).  Every
        node the recursion visits is dirty (clean subtrees are adopted
        whole), so its dirty-ancestor count equals its depth and ``e2``
        always holds the full ``depth`` rows."""
        a = self.arena
        start = int(a.row_start[index])
        if depth:
            a.e2[start : start + depth, :2] = e2
            a.flags[start : start + depth, :2] = flags2
        a.eb[index, :2] = e_b
        a.bflag[index, :2] = bucket_flag
        a.sparse_at[index] = -1 if sparse_at is None else sparse_at
        a.size_b[index] = 2
        a.blk_w[index] = 2
        a.kind[index] = 1

    def store_block(
        self,
        index: int,
        depth: int,
        e_b: np.ndarray,
        split_b: np.ndarray,
        bucket_flag: np.ndarray,
        sparse_at: Optional[int],
        e2: np.ndarray,
        flags2: np.ndarray,
        split2: np.ndarray,
    ) -> None:
        """Record a visited internal node's full solve output."""
        a = self.arena
        start = int(a.row_start[index])
        width = e2.shape[1]
        if depth:
            a.e2[start : start + depth, :width] = e2
            a.flags[start : start + depth, :width] = flags2
            a.splits[start : start + depth, : split2.shape[1]] = split2
        size_b = e_b.shape[0]
        a.eb[index, :size_b] = e_b
        a.eb[index, size_b:] = INF
        a.split_b[index, : split_b.shape[0]] = split_b
        a.bflag[index, :size_b] = bucket_flag
        a.sparse_at[index] = -1 if sparse_at is None else sparse_at
        a.size_b[index] = size_b
        a.blk_w[index] = width
        a.kind[index] = 2

    def note_clean_bulk(
        self, nodes: int, rows_solved: int, rows_reused: int
    ) -> None:
        """Fold the sweep totals into the reuse stats: ``nodes``
        clean internal nodes adopted, with ``rows_solved`` conditioned
        rows re-merged and ``rows_reused`` carried verbatim."""
        self.reused += int(nodes)
        self.rows_solved += int(rows_solved)
        self.rows_reused += int(rows_reused)

    def note_dirty_bulk(self, nodes: int, rows_solved: int) -> None:
        """Fold the sweep's dirty-side totals into the stats:
        ``nodes`` internal bucket cases re-merged, ``rows_solved``
        conditioned rows re-merged (one per dirty ancestor)."""
        self.solved += int(nodes)
        self.rows_solved += int(rows_solved)

    # -- per-node protocol (naive mode; stats for both) --------------------
    def lookup(self, p: PNode) -> Optional[_OVNodeEntry]:
        """The node's previous entry when its subtree is clean (same
        structure, unchanged counts below); ``None`` forces a fresh
        solve.  Counts the subtree-level reuse stats.  Batched sessions
        only ever reach this with dirty nodes — clean subtrees are
        adopted before recursion."""
        if (
            self._old is None
            or self.dirty[p.index]
            or self._old.entries is None
        ):
            self.solved += 1
            return None
        entry = self._old.entries[p.index]
        if entry is None:  # defensive: unknown node class drift
            self.solved += 1
            return None
        self.reused += 1
        return entry

    def store(self, p: PNode, entry: _OVNodeEntry) -> None:
        self._entries[p.index] = entry

    def note_rows(self, solved: int, reused: int) -> None:
        self.rows_solved += solved
        self.rows_reused += reused

    # -- lifecycle ---------------------------------------------------------
    def finish(self) -> OverlappingMemo:
        return OverlappingMemo(
            config=self._config,
            table=self._table,
            counts=self._counts.copy(),
            structure_sig=self._sig,
            entries=self._entries,
            arena=self.arena,
        )

    def stats(self) -> Dict[str, float]:
        total = self.solved + self.reused
        rows_total = self.rows_solved + self.rows_reused
        return {
            "dirty_subtrees": float(self.solved),
            "reused_subtrees": float(self.reused),
            "reused_fraction": (self.reused / total) if total else 0.0,
            "dirty_groups": float(self.dirty_groups),
            "rows_solved": float(self.rows_solved),
            "rows_reused": float(self.rows_reused),
            "rows_reused_fraction": (
                (self.rows_reused / rows_total) if rows_total else 0.0
            ),
        }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def new_session(
    algorithm: str,
    hierarchy: PrunedHierarchy,
    metric: PenaltyMetric,
    budget: int,
    memo,
    **options,
):
    """Create the memo session for one rebuild.

    ``memo`` is the previous build's memo (or ``None`` on the first
    build).  A memo built under a different configuration — or a
    different kernel mode — contributes nothing; the session then
    behaves as a cold first build that still records a fresh memo.
    """
    if not supports_incremental(algorithm, options):
        raise ValueError(
            f"algorithm {algorithm!r} (options {options!r}) has no "
            f"incremental rebuild path"
        )
    config = memo_config_key(algorithm, metric, budget, options)
    if algorithm == "nonoverlapping":
        return NonoverlappingSession(hierarchy, config, memo)
    return OverlappingSession(hierarchy, config, memo)
