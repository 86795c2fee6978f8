"""Compiled fast paths for the per-window serving pipeline.

The steady-state loop the paper actually runs — Monitor-side window
partitioning (Section 2.1) and Control-Center uniform-spread estimation
(Section 2.2.2) — is executed once per window for the lifetime of an
installed partitioning function, so it pays to compile the function
into flat arrays *once per install* and reduce per-tuple work to index
arithmetic:

:class:`CompiledPartitioner`
    Every bucket of every semantics class is a UID interval (a subtree
    of the hierarchy covers a contiguous identifier range), so matching
    compiles to interval tables:

    * **closest-ancestor semantics** (nonoverlapping cuts and
      longest-prefix-match): the match intervals nest, so the UID axis
      decomposes into *elementary segments* — between two consecutive
      interval boundaries the deepest covering bucket never changes.
      The compiler precomputes the sorted boundary array and a parallel
      segment-owner table (the LPM nesting-resolution table: nested
      buckets "punch holes" in their parents by overwriting the
      segments they cover).  Per window, matching is then one segment
      lookup (a dense-table gather for small domains, else one
      ``np.searchsorted``) plus one ``np.bincount`` — replacing the
      per-depth ancestor-mask loop of
      :meth:`~.partition.PartitioningFunction._matches_by_depth`.
    * **overlapping semantics**: an identifier maps to *all* matching
      ancestors.  Buckets are grouped by *nesting level* (number of
      enclosing buckets); within a level intervals are disjoint, so
      after one shared segment lookup each level is a gather plus a
      bincount.  The number of levels
      is bounded by — and usually far smaller than — the number of
      populated depths the naive path loops over.

:class:`CompiledEstimator`
    The Control Center's uniform-spread reconstruction compiles to a
    sparse gather: per group its assigned bucket slot, per slot the
    (net) group population.  The group-to-slot map is exactly the CSR
    form of the bucket→group spread matrix with one nonzero per row
    (``indices = group_slot``, ``data = 1 / population``); the decode
    is then one vectorized divide + gather instead of a per-node Python
    loop over ``groups_below`` dict rebuilds.  Division is performed at
    estimate time (``counts / populations``) rather than multiplying by
    precomputed reciprocals so the floats are bit-identical to the
    reference path's ``count / max(1, pop)``.

**Bit-exactness contract** (the same one ``algorithms.kernels``
established for construction): both compiled paths perform the *same*
floating-point accumulations in the *same order* as the naive
reference, so histograms and estimates are bit-for-bit identical —
``np.bincount`` adds weights in input order, and every window is
processed in its original tuple order.  ``tests/test_stream_kernels.py``
property-tests this across all three semantics classes, sparse buckets
included.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .estimate import _spread_data
from .groups import GroupTable
from .partition import (
    Histogram,
    OverlappingPartitioning,
    PartitioningFunction,
)

__all__ = ["CompiledPartitioner", "CompiledEstimator"]

#: Largest domain (in identifiers) for which the compiler also builds
#: a dense uid -> elementary-segment lookup table.
_DENSE_SEGMENT_CAP = 1 << 20


class CompiledPartitioner:
    """A partitioning function compiled to flat interval tables.

    Compile once per install with :meth:`for_function` (cached on the
    function object); then :meth:`build_histogram` /
    :meth:`build_histograms` produce histograms bit-identical to
    :meth:`~.partition.PartitioningFunction.build_histogram`.
    """

    def __init__(self, function: PartitioningFunction) -> None:
        self.function = function
        domain = function.domain
        #: Match nodes in ascending node-id order; the *slot* index used
        #: by every compiled table below is the position in this array.
        self.slot_nodes = np.asarray(function.match_nodes, dtype=np.int64)
        n = int(self.slot_nodes.size)
        node_list = self.slot_nodes.tolist()
        ranges = [domain.uid_range(node) for node in node_list]
        los = np.asarray([r[0] for r in ranges], dtype=np.int64)
        his = np.asarray([r[1] for r in ranges], dtype=np.int64)
        depths = [node.bit_length() - 1 for node in node_list]
        self.overlapping = isinstance(function, OverlappingPartitioning)

        # Nesting forest: for each slot, the slot of its closest
        # enclosing match node (-1 for top level) and its nesting level.
        slot_of = {node: i for i, node in enumerate(node_list)}
        parent = np.full(n, -1, dtype=np.int64)
        level = np.zeros(n, dtype=np.int64)
        for i in sorted(range(n), key=lambda k: depths[k]):
            anc = node_list[i] >> 1
            while anc >= 1:
                j = slot_of.get(anc)
                if j is not None:
                    parent[i] = j
                    level[i] = level[j] + 1
                    break
                anc >>= 1
        #: Per-slot nesting parent (the LPM "holes" structure, Fig. 7).
        self.nesting_parent_slot = parent

        # Elementary-segment owner table (closest-ancestor matching).
        # Boundaries cover the whole UID axis; shallow slots paint their
        # range first, deeper slots overwrite — leaving, per segment,
        # the deepest covering bucket (the nesting-resolution table).
        bounds = np.unique(
            np.concatenate(
                [np.asarray([0, domain.num_uids], dtype=np.int64), los, his]
            )
        )
        owner = np.full(bounds.size - 1, -1, dtype=np.int64)
        for i in sorted(range(n), key=lambda k: depths[k]):
            a = int(np.searchsorted(bounds, los[i]))
            b = int(np.searchsorted(bounds, his[i]))
            owner[a:b] = i
        self._bounds = bounds
        self._seg_owner = owner

        # Per-nesting-level disjoint interval tables (overlapping
        # matching): level k holds (interval count, slot ids, and a
        # segment -> interval-position table).  A window then needs one
        # searchsorted into ``bounds`` total; each level is a gather +
        # bincount over the shared segment indices.
        self._levels = []
        if self.overlapping:
            for lv in range(int(level.max()) + 1 if n else 0):
                sel = np.nonzero(level == lv)[0]
                order = np.argsort(los[sel], kind="stable")
                sel = sel[order]
                seg_pos = np.full(bounds.size - 1, -1, dtype=np.int64)
                for j, i in enumerate(sel):
                    a = int(np.searchsorted(bounds, los[i]))
                    b = int(np.searchsorted(bounds, his[i]))
                    seg_pos[a:b] = j
                self._levels.append((int(sel.size), sel, seg_pos))

        # Dense uid -> segment table for small domains: one fancy-index
        # gather per window instead of a searchsorted.  8 MiB at the
        # 2^20 cap; larger domains fall back to binary search.
        self._seg_of_uid: Optional[np.ndarray] = None
        if domain.num_uids <= _DENSE_SEGMENT_CAP:
            self._seg_of_uid = (
                np.searchsorted(
                    bounds,
                    np.arange(domain.num_uids, dtype=np.int64),
                    side="right",
                )
                - 1
            )

    # -- compile cache -----------------------------------------------------
    @classmethod
    def for_function(
        cls, function: PartitioningFunction
    ) -> "CompiledPartitioner":
        """The compiled form of ``function``, compiling at most once
        (the result is cached on the function object)."""
        cached = getattr(function, "_compiled_partitioner", None)
        if cached is None:
            cached = cls(function)
            function._compiled_partitioner = cached
        return cached

    # -- matching ----------------------------------------------------------
    def _segments(self, uids: np.ndarray) -> np.ndarray:
        """Elementary-segment index per uid: a dense-table gather for
        small domains, one searchsorted otherwise."""
        if self._seg_of_uid is not None:
            return self._seg_of_uid[uids]
        return np.searchsorted(self._bounds, uids, side="right") - 1

    def match_slots(self, uids: np.ndarray) -> np.ndarray:
        """Closest-ancestor bucket slot per uid (-1 where unmatched)."""
        return self._seg_owner[self._segments(uids)]

    def _closest_sums(
        self, uids: np.ndarray, weights: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        slot = self.match_slots(uids)
        # Shifted bincount: unmatched (-1) lands in a discarded bin 0,
        # avoiding a boolean compress of uids and weights.  Per-bucket
        # accumulation order is untouched, so sums stay bit-identical.
        sums = np.bincount(
            slot + 1, weights=weights, minlength=self.slot_nodes.size + 1
        )[1:]
        return sums, slot >= 0

    def _overlapping_sums(
        self, uids: np.ndarray, weights: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        n = int(self.slot_nodes.size)
        sums = np.zeros(n, dtype=np.float64)
        matched = np.zeros(uids.shape, dtype=bool)
        seg = self._segments(uids)
        for k, (width, slots, seg_pos) in enumerate(self._levels):
            pos = seg_pos[seg]
            if k == 0:
                # Top-level intervals contain every deeper one, so any
                # match at all implies a level-0 match.
                matched = pos >= 0
            local = np.bincount(
                pos + 1, weights=weights, minlength=width + 1
            )[1:]
            sums[slots] = local
        return sums, matched

    # -- histogram construction --------------------------------------------
    def build_histogram(
        self,
        uids: Sequence[int],
        values: Optional[Sequence[float]] = None,
    ) -> Histogram:
        """Bit-identical fast form of
        :meth:`~.partition.PartitioningFunction.build_histogram`."""
        uids = np.asarray(uids, dtype=np.int64)
        weights = PartitioningFunction._weights(uids, values)
        if self.overlapping:
            sums, matched = self._overlapping_sums(uids, weights)
        else:
            sums, matched = self._closest_sums(uids, weights)
        return Histogram.from_arrays(
            self.slot_nodes,
            sums,
            unmatched=float(weights[~matched].sum()),
            total=float(weights.sum()),
        )

    def build_histograms(
        self,
        uid_windows: Sequence[Sequence[int]],
        values: Optional[Sequence[Optional[Sequence[float]]]] = None,
    ) -> List[Histogram]:
        """Batched multi-window partitioning.

        All windows are matched in one concatenated pass; per-window
        bucket sums come from a flattened 2-D ``(window, slot)``
        bincount.  The concatenation is window-major — already
        lexsorted by (window, arrival) — so per-bucket accumulation
        order inside each window equals the single-window path and the
        histograms are bit-identical to ``W`` separate
        :meth:`build_histogram` calls.
        """
        arrays = [np.asarray(w, dtype=np.int64) for w in uid_windows]
        if values is None:
            values = [None] * len(arrays)
        elif len(values) != len(arrays):
            raise ValueError(
                f"{len(values)} value vectors for {len(arrays)} windows"
            )
        n_win = len(arrays)
        if n_win == 0:
            return []
        weight_arrays = [
            PartitioningFunction._weights(u, v)
            for u, v in zip(arrays, values)
        ]
        uids = np.concatenate(arrays) if n_win > 1 else arrays[0]
        weights = (
            np.concatenate(weight_arrays) if n_win > 1 else weight_arrays[0]
        )
        lengths = [a.size for a in arrays]
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        win = np.repeat(np.arange(n_win, dtype=np.int64), lengths)
        n_slots = int(self.slot_nodes.size)
        sums = np.zeros((n_win, n_slots), dtype=np.float64)
        # Both branches use the shifted-bincount trick of the
        # single-window kernels: per window, bin 0 absorbs unmatched
        # tuples and is dropped by the ``[:, 1:]`` slice.
        if self.overlapping:
            matched = np.zeros(uids.shape, dtype=bool)
            seg = self._segments(uids)
            for k, (width, slots, seg_pos) in enumerate(self._levels):
                pos = seg_pos[seg]
                if k == 0:
                    matched = pos >= 0
                flat = win * (width + 1) + (pos + 1)
                local = np.bincount(
                    flat, weights=weights, minlength=n_win * (width + 1)
                ).reshape(n_win, width + 1)
                sums[:, slots] = local[:, 1:]
        else:
            slot = self.match_slots(uids)
            matched = slot >= 0
            flat = win * (n_slots + 1) + (slot + 1)
            sums = np.bincount(
                flat, weights=weights, minlength=n_win * (n_slots + 1)
            ).reshape(n_win, n_slots + 1)[:, 1:]
        out = []
        for w in range(n_win):
            lo, hi = int(offsets[w]), int(offsets[w + 1])
            w_weights = weights[lo:hi]
            w_matched = matched[lo:hi]
            out.append(
                Histogram.from_arrays(
                    self.slot_nodes,
                    sums[w],
                    unmatched=float(w_weights[~w_matched].sum()),
                    total=float(w_weights.sum()),
                )
            )
        return out


class CompiledEstimator:
    """Uniform-spread reconstruction compiled to CSR-style arrays.

    Precomputes, per ``(table, function)`` pair: the group→slot
    assignment (``indices`` of the one-nonzero-per-row spread matrix),
    per-slot populations (clamped denominators), and the sparse-bucket
    special cases.  :meth:`estimate` is then a vectorized divide +
    gather, bit-identical to
    :func:`~.estimate.reconstruct_estimates`.
    """

    def __init__(
        self, table: GroupTable, function: PartitioningFunction
    ) -> None:
        self.table = table
        self.function = function
        self.slot_nodes = np.asarray(function.match_nodes, dtype=np.int64)
        spread = _spread_data(table, function)
        assigned = spread.assigned
        # Node ids -> slot indices (assigned nodes are match nodes).
        group_slot = np.searchsorted(self.slot_nodes, np.abs(assigned))
        self.group_slot = np.where(assigned >= 0, group_slot, -1).astype(
            np.int64
        )
        self._gather = np.maximum(self.group_slot, 0)
        self._covered = self.group_slot >= 0
        self.overlapping = isinstance(function, OverlappingPartitioning)
        populations = spread.gross if self.overlapping else spread.net
        pops = np.asarray(
            [populations[int(x)] for x in self.slot_nodes], dtype=np.float64
        )
        #: Clamped uniform-spread denominators (``max(1, pop)``).
        self.populations = np.maximum(1.0, pops)
        # Sparse buckets (Section 4.3): the inner sub-bucket reports its
        # group exactly; the outer spreads the residual over the
        # "empty" groups.  Only the overlapping reference path treats
        # them specially — for nested (LPM) semantics the net
        # populations already make them fall out naturally.
        inner_slots: List[int] = []
        outer_slots: List[int] = []
        if self.overlapping:
            node_to_slot = {
                int(node): i for i, node in enumerate(self.slot_nodes)
            }
            for b in function.buckets:
                if b.is_sparse:
                    outer_slots.append(node_to_slot[b.node])
                    inner_slots.append(node_to_slot[b.sparse_group_node])
        self._inner_slots = np.asarray(inner_slots, dtype=np.int64)
        self._outer_slots = np.asarray(outer_slots, dtype=np.int64)
        self._outer_empties = np.maximum(
            1.0, pops[self._outer_slots] - 1.0
        ) if outer_slots else np.empty(0, dtype=np.float64)

    @classmethod
    def for_pair(
        cls, table: GroupTable, function: PartitioningFunction
    ) -> "CompiledEstimator":
        """The compiled estimator for ``(table, function)``, reusing a
        cached instance across windows of the same install (cached on
        the function object, so it is freed with the function)."""
        cached = getattr(function, "_compiled_estimator", None)
        if cached is None or cached.table is not table:
            cached = cls(table, function)
            function._compiled_estimator = cached
        return cached

    def slot_counts(self, histogram: Histogram) -> np.ndarray:
        """Per-slot bucket counts of a histogram (zeros for absent
        buckets; unknown nodes are ignored, as the reference path's
        per-node ``histogram.get`` would)."""
        counts = np.zeros(self.slot_nodes.size, dtype=np.float64)
        if len(histogram):
            idx = np.searchsorted(self.slot_nodes, histogram.nodes)
            idx = np.minimum(idx, self.slot_nodes.size - 1)
            ok = self.slot_nodes[idx] == histogram.nodes
            counts[idx[ok]] = histogram.values[ok]
        return counts

    def estimate(self, histogram: Histogram) -> np.ndarray:
        """Per-group estimates — the sparse matvec form of
        :func:`~.estimate.reconstruct_estimates`."""
        counts = self.slot_counts(histogram)
        slot_est = counts / self.populations
        if self._inner_slots.size:
            # Sparse inner sub-buckets report their single group
            # exactly; outers spread the residual over the empties.
            slot_est[self._inner_slots] = counts[self._inner_slots]
            residual = np.maximum(
                0.0,
                counts[self._outer_slots] - counts[self._inner_slots],
            )
            slot_est[self._outer_slots] = residual / self._outer_empties
        estimates = np.where(self._covered, slot_est[self._gather], 0.0)
        return estimates
