""":class:`DeltaIndex` — a :class:`GraphPairIndex` that absorbs deltas.

``GraphPairIndex`` interns both graphs once and freezes; every new edge
would force a full re-intern (new CSR, new dense ids, every cached array
invalidated).  ``DeltaIndex`` instead *appends*:

- new nodes get fresh dense ids past the current maximum — existing
  dense ids (and therefore every cached score table and link array
  keyed by them) stay valid forever;
- edge additions/removals accumulate in per-side **adjacency patches**
  (uint32 neighbor arrays per touched node) layered over the base CSR;
  :meth:`neighbors1` / :meth:`neighbors2` serve the merged view;
- when the patch layer grows past a threshold, :meth:`compact` folds it
  into a fresh base CSR *in the existing dense order* — a rebuild of
  the adjacency arrays only, never a re-intern.

Appending breaks the base class's canonical-order invariant (dense-id
comparison == :func:`~repro.core.ordering.node_sort_key` order), which
the array selectors rely on for tie-breaks.  The index therefore
maintains explicit canonical **rank arrays** (:attr:`rank1`,
:attr:`rank2`, with inverses :attr:`unrank1`/:attr:`unrank2`);
the incremental engine routes selection through them, restoring exactly
the tie-break order a cold run's canonical interning would produce.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph
from repro.graphs.pair_index import (
    GraphPairIndex,
    compact_csr_indices,
    degree_exponents,
)
from repro.incremental.delta import DeltaError, GraphDelta

Node = Hashable

_EMPTY = np.empty(0, dtype=np.int64)

#: Patch layer folds into the base CSR once it carries more than this
#: fraction of the base edge count (compaction is a cheap vectorized
#: splice, so the threshold errs toward keeping gathers CSR-fast)...
COMPACT_RATIO = 0.05
#: ...but never before this many patched edge endpoints (tiny graphs
#: would otherwise compact on every delta).
COMPACT_MIN_EDGES = 512


class _AdjacencyPatch:
    """Per-side adjacency overlay: added/removed neighbors per dense id.

    Additions accumulate as per-node Python lists (appending one edge
    is O(1), so a hub gaining k edges in one delta costs O(k), not the
    O(k^2) of regrowing an array per edge) and are materialized to
    ``uint32``-compatible arrays only at merge time; removals are
    per-node sets.  Both are relative to the base CSR, so ``merge`` of
    any node is ``(base slice - removed) + added``.
    """

    __slots__ = ("added", "removed", "pending")

    def __init__(self) -> None:
        self.added: dict[int, list[int]] = {}
        self.removed: dict[int, set[int]] = {}
        self.pending = 0  # directed endpoint count in the overlay

    def add(self, u: int, v: int) -> None:
        """Record directed adjacency ``u -> v`` as added."""
        removed = self.removed.get(u)
        if removed is not None and v in removed:
            removed.discard(v)
            if not removed:
                del self.removed[u]
            self.pending -= 1
            return
        self.added.setdefault(u, []).append(v)
        self.pending += 1

    def remove(self, u: int, v: int) -> None:
        """Record directed adjacency ``u -> v`` as removed."""
        values = self.added.get(u)
        if values is not None and v in values:
            values.remove(v)
            if not values:
                del self.added[u]
            self.pending -= 1
            return
        self.removed.setdefault(u, set()).add(v)
        self.pending += 1

    def merge(self, base: np.ndarray, u: int) -> np.ndarray:
        """The current neighbor array of *u* given its *base* slice."""
        removed = self.removed.get(u)
        if removed is not None:
            base = base[~np.isin(base.astype(np.int64), list(removed))]
        values = self.added.get(u)
        if values is not None:
            base = np.concatenate(
                [
                    base.astype(np.int64),
                    np.asarray(values, dtype=np.int64),
                ]
            )
        return base

    def touched(self, u: int) -> bool:
        """Whether *u*'s adjacency differs from the base CSR."""
        return u in self.added or u in self.removed

    def clear(self) -> None:
        self.added.clear()
        self.removed.clear()
        self.pending = 0


class AppliedDelta:
    """What :meth:`DeltaIndex.apply_delta` observed while applying.

    The incremental engine's exactness bookkeeping needs the *previous*
    state of everything the delta touched; this object snapshots it
    before mutation.

    Attributes:
        changed1: sorted ``int64`` dense g1 ids whose adjacency changed.
        changed2: dense g2 ids whose adjacency changed.
        old_neighbors1: pre-delta neighbor array per changed g1 id.
        old_neighbors2: pre-delta neighbor array per changed g2 id.
        old_deg1: pre-delta degree array (length = pre-delta ``n1``).
        old_deg2: pre-delta degree array.
        old_n1: pre-delta node count of g1.
        old_n2: pre-delta node count of g2.
        new_seeds: the delta's confirmed links as a dict.
    """

    __slots__ = (
        "changed1", "changed2", "old_neighbors1", "old_neighbors2",
        "old_deg1", "old_deg2", "old_n1", "old_n2", "new_seeds",
    )

    def __init__(self, index: "DeltaIndex") -> None:
        self.changed1: np.ndarray = _EMPTY
        self.changed2: np.ndarray = _EMPTY
        self.old_neighbors1: dict[int, np.ndarray] = {}
        self.old_neighbors2: dict[int, np.ndarray] = {}
        self.old_deg1 = index.deg1.copy()
        self.old_deg2 = index.deg2.copy()
        self.old_n1 = index.n1
        self.old_n2 = index.n2
        self.new_seeds: dict[Node, Node] = {}


class DeltaIndex(GraphPairIndex):
    """Dense pair interning that survives graph deltas without re-interning.

    Construction interns canonically exactly like the base class (so a
    fresh ``DeltaIndex`` is bit-compatible with a ``GraphPairIndex`` of
    the same pair); :meth:`apply_delta` then mutates the graphs, layers
    adjacency patches, interns any new nodes *append-only*, and keeps
    degrees/exponents/canonical-ranks current.

    Attributes:
        rank1: ``int64[n1]`` canonical rank per dense g1 id — the dense
            id this node *would* have under a fresh canonical intern.
        rank2: canonical ranks for g2.
        unrank1: inverse permutation (``unrank1[rank1] == arange``).
        unrank2: inverse permutation for g2.
    """

    __slots__ = (
        "rank1", "rank2", "unrank1", "unrank2",
        "_patch1", "_patch2", "_extra1", "_extra2",
        "_touched1", "_touched2",
        "_sorted_keys1", "_sorted_keys2",
        "_compact_ratio", "_compact_min",
    )

    def __init__(
        self,
        g1: Graph,
        g2: Graph,
        *,
        order1: "list[Node] | None" = None,
        order2: "list[Node] | None" = None,
        compact_ratio: float = COMPACT_RATIO,
        compact_min_edges: int = COMPACT_MIN_EDGES,
    ) -> None:
        super().__init__(g1, g2, order1=order1, order2=order2)
        self._patch1 = _AdjacencyPatch()
        self._patch2 = _AdjacencyPatch()
        # Nodes interned after construction: dense ids past the base CSR.
        self._extra1: list[Node] = []
        self._extra2: list[Node] = []
        # Per-node "adjacency differs from the base CSR" bits — the
        # vectorized gather path below serves untouched nodes straight
        # from the CSR and only walks the patch for touched ones.
        self._touched1 = np.zeros(self.csr1.num_nodes, dtype=bool)
        self._touched2 = np.zeros(self.csr2.num_nodes, dtype=bool)
        self._compact_ratio = compact_ratio
        self._compact_min = compact_min_edges
        self._recompute_ranks()

    # ------------------------------------------------------------------
    # Id space (overlay-aware overrides)
    # ------------------------------------------------------------------
    @property
    def n1(self) -> int:
        """Current number of g1 nodes (base + appended)."""
        return self.csr1.num_nodes + len(self._extra1)

    @property
    def n2(self) -> int:
        """Current number of g2 nodes (base + appended)."""
        return self.csr2.num_nodes + len(self._extra2)

    def node1(self, dense: int) -> Node:
        base = self.csr1.num_nodes
        if dense >= base:
            return self._extra1[dense - base]
        return self.csr1.node_ids[dense]

    def node2(self, dense: int) -> Node:
        base = self.csr2.num_nodes
        if dense >= base:
            return self._extra2[dense - base]
        return self.csr2.node_ids[dense]

    def export_links(
        self, left: np.ndarray, right: np.ndarray
    ) -> dict[Node, Node]:
        n1_ = self.node1
        n2_ = self.node2
        return {
            n1_(v1): n2_(v2)
            for v1, v2 in zip(left.tolist(), right.tolist())
        }

    def intern_links(
        self, links: dict[Node, Node]
    ) -> tuple[np.ndarray, np.ndarray]:
        n = len(links)
        left = np.empty(n, dtype=np.int64)
        right = np.empty(n, dtype=np.int64)
        d1 = self.dense1
        d2 = self.dense2
        for i, (v1, v2) in enumerate(links.items()):
            left[i] = d1(v1)
            right[i] = d2(v2)
        return left, right

    # dense1/dense2 inherit: CSRGraph._dense_of is extended in place by
    # _intern_new below, so the base lookups stay correct.

    # ------------------------------------------------------------------
    # Merged adjacency views
    # ------------------------------------------------------------------
    def _neighbors(
        self, csr: CSRGraph, patch: _AdjacencyPatch, dense: int
    ) -> np.ndarray:
        if dense < csr.num_nodes:
            base = csr.indices[csr.indptr[dense] : csr.indptr[dense + 1]]
        else:
            base = _EMPTY
        if not patch.touched(dense):
            return base.astype(np.int64, copy=False)
        return patch.merge(base, dense)

    def neighbors1(self, dense: int) -> np.ndarray:
        """Current neighbor dense-ids of g1 node *dense* (int64)."""
        return self._neighbors(self.csr1, self._patch1, dense)

    def neighbors2(self, dense: int) -> np.ndarray:
        """Current neighbor dense-ids of g2 node *dense* (int64)."""
        return self._neighbors(self.csr2, self._patch2, dense)

    def _gather(
        self,
        csr: CSRGraph,
        patch: _AdjacencyPatch,
        touched: np.ndarray,
        targets: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Segmented gather of *current* neighborhoods (patch-aware).

        Same ``(values, segments)`` contract as
        :func:`repro.core.kernels.segmented_gather` — segments index
        into *targets* and come out grouped ascending — but correct in
        the presence of pending patches: untouched targets are served
        vectorized from the base CSR, touched ones (including appended
        nodes) through the merged per-node view.
        """
        from repro.core.kernels import segmented_gather

        targets = np.asarray(targets, dtype=np.int64)
        if len(targets) == 0:
            return _EMPTY, _EMPTY
        base_n = csr.num_nodes
        is_touched = targets >= base_n
        in_base = np.flatnonzero(~is_touched)
        is_touched[in_base] = touched[targets[in_base]]
        clean = targets[~is_touched]
        vals_c, seg_c = segmented_gather(csr.indptr, csr.indices, clean)
        vals_c = vals_c.astype(np.int64, copy=False)
        # Remap clean segments to positions in the original targets.
        clean_pos = np.flatnonzero(~is_touched)
        seg_c = clean_pos[seg_c] if len(seg_c) else seg_c
        dirty_pos = np.flatnonzero(is_touched)
        if len(dirty_pos) == 0:
            return vals_c, seg_c
        vals_d_parts = []
        seg_d_parts = []
        for pos in dirty_pos.tolist():
            nbrs = self._neighbors(csr, patch, int(targets[pos]))
            if len(nbrs):
                vals_d_parts.append(nbrs.astype(np.int64, copy=False))
                seg_d_parts.append(np.full(len(nbrs), pos, dtype=np.int64))
        if not vals_d_parts:
            return vals_c, seg_c
        vals = np.concatenate([vals_c, *vals_d_parts])
        seg = np.concatenate([seg_c, *seg_d_parts])
        order = np.argsort(seg, kind="stable")
        return vals[order], seg[order]

    def gather_neighbors1(
        self, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Patch-aware segmented gather over g1 (current adjacency)."""
        return self._gather(self.csr1, self._patch1, self._touched1, targets)

    def gather_neighbors2(
        self, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Patch-aware segmented gather over g2 (current adjacency)."""
        return self._gather(self.csr2, self._patch2, self._touched2, targets)

    @property
    def is_compact(self) -> bool:
        """Whether the base CSR alone describes the current graphs."""
        return (
            self._patch1.pending == 0
            and self._patch2.pending == 0
            and not self._extra1
            and not self._extra2
        )

    # ------------------------------------------------------------------
    # Delta application
    # ------------------------------------------------------------------
    def _intern_new(self, side: int, nodes: "list[Node]") -> None:
        """Append brand-new nodes to one side's dense id space."""
        from repro.core.ordering import node_sort_key

        csr = self.csr1 if side == 1 else self.csr2
        extra = self._extra1 if side == 1 else self._extra2
        start = csr.num_nodes + len(extra)
        for i, node in enumerate(sorted(nodes, key=node_sort_key)):
            csr._dense_of[node] = start + i
            extra.append(node)

    def apply_delta(self, delta: GraphDelta) -> AppliedDelta:
        """Mutate the graphs per *delta* and absorb it into the index.

        Returns an :class:`AppliedDelta` snapshotting the pre-delta
        adjacency/degrees of everything touched (the incremental
        engine's subtraction terms read from it).  Compaction is *not*
        triggered here — call :meth:`maybe_compact` when cached arrays
        derived from the old state are no longer needed.
        """
        applied = AppliedDelta(self)
        new1 = [
            v
            for v in (
                list(delta.added_nodes1)
                + [v for edge in delta.added_edges1 for v in edge]
            )
            if not self.g1.has_node(v)
        ]
        new2 = [
            v
            for v in (
                list(delta.added_nodes2)
                + [v for edge in delta.added_edges2 for v in edge]
            )
            if not self.g2.has_node(v)
        ]
        # Snapshot pre-delta adjacency of every touched existing node.
        for side, edges_groups, snap in (
            (1, (delta.added_edges1, delta.removed_edges1),
             applied.old_neighbors1),
            (2, (delta.added_edges2, delta.removed_edges2),
             applied.old_neighbors2),
        ):
            graph = self.g1 if side == 1 else self.g2
            nbrs = self.neighbors1 if side == 1 else self.neighbors2
            dense = self.dense1 if side == 1 else self.dense2
            for edges in edges_groups:
                for u, v in edges:
                    for node in (u, v):
                        if not graph.has_node(node):
                            continue
                        d = dense(node)
                        if d not in snap:
                            snap[d] = nbrs(d)
        # Mutate graphs (strict) and intern new nodes append-only.
        from repro.incremental.delta import apply_delta_to_graphs

        apply_delta_to_graphs(self.g1, self.g2, delta)
        # Dedupe preserving first-seen order; _intern_new assigns
        # dense ids in canonical (node_sort_key) order regardless.
        new1 = list(dict.fromkeys(new1))
        new2 = list(dict.fromkeys(new2))
        if new1:
            self._intern_new(1, new1)
        if new2:
            self._intern_new(2, new2)
        # Layer the patches and maintain degrees.
        deg_changes1: dict[int, int] = {}
        deg_changes2: dict[int, int] = {}
        for sign, edges, patch, dense, changes in (
            (+1, delta.added_edges1, self._patch1, self.dense1,
             deg_changes1),
            (-1, delta.removed_edges1, self._patch1, self.dense1,
             deg_changes1),
            (+1, delta.added_edges2, self._patch2, self.dense2,
             deg_changes2),
            (-1, delta.removed_edges2, self._patch2, self.dense2,
             deg_changes2),
        ):
            record = patch.add if sign > 0 else patch.remove
            for u, v in edges:
                du, dv = dense(u), dense(v)
                record(du, dv)
                record(dv, du)
                changes[du] = changes.get(du, 0) + sign
                changes[dv] = changes.get(dv, 0) + sign
        base1_n = self.csr1.num_nodes
        for du in deg_changes1:
            if du < base1_n:
                self._touched1[du] = True
        base2_n = self.csr2.num_nodes
        for du in deg_changes2:
            if du < base2_n:
                self._touched2[du] = True
        applied.changed1 = np.asarray(sorted(deg_changes1), dtype=np.int64)
        applied.changed2 = np.asarray(sorted(deg_changes2), dtype=np.int64)
        self._refresh_degrees(deg_changes1, deg_changes2)
        if new1:
            self._insert_ranks(1, len(new1))
        if new2:
            self._insert_ranks(2, len(new2))
        applied.new_seeds = dict(delta.added_seeds)
        if len(applied.new_seeds) != len(delta.added_seeds):
            raise DeltaError("added_seeds contains duplicate g1 endpoints")
        return applied

    def _refresh_degrees(
        self, changes1: dict[int, int], changes2: dict[int, int]
    ) -> None:
        for side, changes in ((1, changes1), (2, changes2)):
            deg = self.deg1 if side == 1 else self.deg2
            n = self.n1 if side == 1 else self.n2
            if len(deg) < n:  # new nodes appended: extend with zeros
                deg = np.concatenate(
                    [deg, np.zeros(n - len(deg), dtype=np.int64)]
                )
            for node, change in changes.items():
                deg[node] += change
            exp = degree_exponents(deg)
            if side == 1:
                self.deg1, self.exp1 = deg, exp
            else:
                self.deg2, self.exp2 = deg, exp

    def _recompute_ranks(self) -> None:
        """Build canonical ranks from scratch (construction/compaction).

        Also materializes the per-side sorted key list that
        :meth:`_insert_ranks` bisects into, so later appends cost
        O(k log n + n) instead of re-sorting the whole node set.
        """
        from repro.core.ordering import node_sort_key

        for side in (1, 2):
            n = self.n1 if side == 1 else self.n2
            node_of = self.node1 if side == 1 else self.node2
            keys = [node_sort_key(node_of(d)) for d in range(n)]
            order = sorted(range(n), key=keys.__getitem__)
            rank = np.empty(n, dtype=np.int64)
            rank[np.asarray(order, dtype=np.int64)] = np.arange(
                n, dtype=np.int64
            )
            unrank = np.asarray(order, dtype=np.int64)
            sorted_keys = [keys[d] for d in order]
            if side == 1:
                self.rank1, self.unrank1 = rank, unrank
                self._sorted_keys1 = sorted_keys
            else:
                self.rank2, self.unrank2 = rank, unrank
                self._sorted_keys2 = sorted_keys

    def _insert_ranks(self, side: int, count: int) -> None:
        """Splice *count* appended nodes into the canonical rank order.

        New nodes always take the highest dense ids, so only their
        canonical positions need finding (one ``bisect`` each over the
        sorted key list, against the pre-delta order); the permutation
        arrays are then rebuilt in a single vectorized pass —
        O(k log n) lookups plus O(n + k) array work per delta, never a
        Python re-sort of the whole node set.
        """
        import bisect

        from repro.core.ordering import node_sort_key

        if side == 1:
            unrank, sorted_keys = self.unrank1, self._sorted_keys1
            node_of, n = self.node1, self.n1
        else:
            unrank, sorted_keys = self.unrank2, self._sorted_keys2
            node_of, n = self.node2, self.n2
        new_dense = list(range(n - count, n))
        # Positions are all computed against the *old* sorted order;
        # the new keys are themselves sorted (the intern order), so
        # np.insert places ties in ascending-key order correctly.
        new_keys = [node_sort_key(node_of(d)) for d in new_dense]
        positions = np.asarray(
            [bisect.bisect_left(sorted_keys, key) for key in new_keys],
            dtype=np.int64,
        )
        unrank = np.insert(
            unrank, positions, np.asarray(new_dense, dtype=np.int64)
        )
        rank = np.empty(n, dtype=np.int64)
        rank[unrank] = np.arange(n, dtype=np.int64)
        for key, pos in zip(reversed(new_keys), reversed(positions)):
            sorted_keys.insert(int(pos), key)
        if side == 1:
            self.rank1, self.unrank1 = rank, unrank
            self._sorted_keys1 = sorted_keys
        else:
            self.rank2, self.unrank2 = rank, unrank
            self._sorted_keys2 = sorted_keys

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def maybe_compact(self) -> bool:
        """Fold the patch layer into the base CSR if it grew too large.

        Returns whether compaction ran.  The trigger is
        ``pending > max(compact_min_edges, compact_ratio * base)`` on
        either side.
        """
        for csr, patch in (
            (self.csr1, self._patch1),
            (self.csr2, self._patch2),
        ):
            threshold = max(
                self._compact_min,
                int(self._compact_ratio * len(csr.indices)),
            )
            if patch.pending > threshold:
                self.compact()
                return True
        return False

    def ensure_compact(self) -> None:
        """Compact unless the base CSR is already current."""
        if not self.is_compact:
            self.compact()

    def _splice_side(
        self,
        csr: CSRGraph,
        patch: _AdjacencyPatch,
        extra: "list[Node]",
        deg: np.ndarray,
    ) -> CSRGraph:
        """Fold one side's patch layer into a fresh CSR by splicing.

        Untouched rows are bulk-copied from the old ``indices`` array;
        only touched rows (and appended nodes) are re-assembled and
        re-sorted — O(n + m) numpy plus O(touched) Python, instead of
        re-walking every adjacency set of the graph.
        """
        base_n = csr.num_nodes
        n_new = base_n + len(extra)
        new_indptr = np.zeros(n_new + 1, dtype=np.int64)
        np.cumsum(deg[:n_new], out=new_indptr[1:])
        new_indices = np.empty(int(new_indptr[-1]), dtype=np.int64)
        touched = sorted(
            t
            for t in set(patch.added) | set(patch.removed)
            if t < base_n
        )
        prev = 0
        for t in touched:
            if t > prev:
                src = csr.indices[csr.indptr[prev] : csr.indptr[t]]
                start = new_indptr[prev]
                new_indices[start : start + len(src)] = src
            base = csr.indices[csr.indptr[t] : csr.indptr[t + 1]]
            merged = np.sort(patch.merge(base, t))
            new_indices[new_indptr[t] : new_indptr[t + 1]] = merged
            prev = t + 1
        if prev < base_n:
            src = csr.indices[csr.indptr[prev] :]
            start = new_indptr[prev]
            new_indices[start : start + len(src)] = src
        for i in range(len(extra)):
            d = base_n + i
            merged = np.sort(patch.merge(_EMPTY, d))
            new_indices[new_indptr[d] : new_indptr[d + 1]] = merged
        out = CSRGraph.__new__(CSRGraph)
        out.indptr = new_indptr
        out.indices = new_indices
        out.node_ids = list(csr.node_ids) + extra
        out._dense_of = csr._dense_of  # already covers appended nodes
        return out

    def compact(self) -> None:
        """Fold the patch layer into the base CSR, keeping dense order.

        Dense ids are stable across compaction — only the adjacency
        arrays are rebuilt (and re-downcast to ``uint32``), so cached
        score tables and link arrays keyed by dense ids stay valid.
        """
        self.csr1 = self._splice_side(
            self.csr1, self._patch1, self._extra1, self.deg1
        )
        self.csr2 = self._splice_side(
            self.csr2, self._patch2, self._extra2, self.deg2
        )
        compact_csr_indices(self.csr1)
        compact_csr_indices(self.csr2)
        self._extra1 = []
        self._extra2 = []
        self._patch1.clear()
        self._patch2.clear()
        self._touched1 = np.zeros(self.csr1.num_nodes, dtype=bool)
        self._touched2 = np.zeros(self.csr2.num_nodes, dtype=bool)
        self.deg1 = self.csr1.degree_array()
        self.deg2 = self.csr2.degree_array()
        self.exp1 = degree_exponents(self.deg1)
        self.exp2 = degree_exponents(self.deg2)

    def __repr__(self) -> str:
        return (
            f"DeltaIndex(n1={self.n1}, n2={self.n2}, "
            f"pending1={self._patch1.pending}, "
            f"pending2={self._patch2.pending}, "
            f"compact={self.is_compact})"
        )
