""":class:`DeltaIndex` — a :class:`GraphPairIndex` that absorbs deltas.

``GraphPairIndex`` interns both graphs once and freezes; every new edge
would force a full re-intern (new CSR, new dense ids, every cached array
invalidated).  ``DeltaIndex`` instead *appends*:

- new nodes get fresh dense ids past the current maximum — existing
  dense ids (and therefore every cached score table and link array
  keyed by them) stay valid forever;
- every delta's edge changes are spliced into fresh CSR arrays *in the
  existing dense order* (:meth:`maybe_compact`, the last step of
  :meth:`apply_delta`) — a rebuild of the adjacency arrays only, never
  a re-intern — so ``csr1``/``csr2`` always describe the current graphs
  and every join reads them directly.

Appending breaks the base class's canonical-order invariant (dense-id
comparison == :func:`~repro.core.ordering.node_sort_key` order), which
the array selectors rely on for tie-breaks.  The index therefore
maintains explicit canonical **rank arrays** (:attr:`rank1`,
:attr:`rank2`, with inverses :attr:`unrank1`/:attr:`unrank2`);
the incremental engine routes selection through them, restoring exactly
the tie-break order a cold run's canonical interning would produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Iterable

import numpy as np

from repro.core.kernels import segmented_gather
from repro.core.ordering import node_sort_key
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph
from repro.graphs.pair_index import (
    GraphPairIndex,
    compact_csr_indices,
    degree_exponents,
)
from repro.incremental.delta import GraphDelta, apply_delta_to_graphs

Node = Hashable

#: One side's not-yet-spliced delta: the appended nodes (dense order),
#: the changed rows, and the directed ``(src, dst)`` dense edge arrays
#: added and removed.
_Pending = tuple[
    list[Node], np.ndarray, tuple[np.ndarray, np.ndarray],
    tuple[np.ndarray, np.ndarray],
]


@dataclass(frozen=True)
class AppliedDelta:
    """The pre-delta state :meth:`DeltaIndex.apply_delta` replaced.

    The incremental engine's subtraction terms read the *previous*
    adjacency of everything the delta touched.  The splice builds fresh
    CSR arrays, so keeping the old :class:`CSRGraph` objects costs
    nothing.  Their ``indptr``/``indices``/``node_ids`` are the
    pre-delta ones; nodes appended by the delta lie past
    ``old_csr.num_nodes`` and have no old neighbours.

    Attributes:
        old_csr1: pre-delta g1 adjacency.
        old_csr2: pre-delta g2 adjacency.
        old_deg1: pre-delta degree array (length = pre-delta ``n1``).
        old_deg2: pre-delta degree array of g2.
        changed1: sorted ``int64`` dense g1 ids whose adjacency changed.
        changed2: dense g2 ids whose adjacency changed.
    """

    old_csr1: CSRGraph
    old_csr2: CSRGraph
    old_deg1: np.ndarray
    old_deg2: np.ndarray
    changed1: np.ndarray
    changed2: np.ndarray


def _directed(
    dense_of: dict[Node, int], edges: Iterable[tuple[Node, Node]], count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Both orientations of *edges* as dense ``(src, dst)`` arrays."""
    flat = np.fromiter(
        map(dense_of.__getitem__, chain.from_iterable(edges)),
        dtype=np.int64,
        count=2 * count,
    )
    u, v = flat[0::2], flat[1::2]
    return np.concatenate([u, v]), np.concatenate([v, u])


def _splice(
    csr: CSRGraph, deg: np.ndarray, pending: _Pending
) -> CSRGraph:
    """Fresh CSR arrays for *csr* with one side's delta applied.

    Only the changed rows are re-assembled: their old entries plus the
    added ones minus the removed ones, as packed ``row * n + col`` keys
    sorted in one pass (rows ascending, each row's neighbours
    ascending — the dense order :class:`CSRGraph` builds).  Every other
    entry is bulk-copied, in order, into the slots the changed rows do
    not take — O(n + m) numpy, no Python loop over rows.
    """
    fresh, touched, (add_src, add_dst), (rem_src, rem_dst) = pending
    n_old = csr.num_nodes
    n = n_old + len(fresh)
    t_old = touched[touched < n_old]
    vals, seg = segmented_gather(csr.indptr, csr.indices, t_old)
    keys = np.concatenate([t_old[seg] * n + vals, add_src * n + add_dst])
    if len(rem_src):
        # Strict deltas: an added edge was absent and a removed one is
        # in the old rows or among the additions, so this is exact.
        keys = keys[~np.isin(keys, rem_src * n + rem_dst)]
    keys.sort()
    rows, cols = np.divmod(keys, n)
    first = np.searchsorted(rows, touched)
    new_deg = np.zeros(n, dtype=np.int64)
    new_deg[:n_old] = deg
    new_deg[touched] = np.searchsorted(rows, touched, side="right") - first
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_deg, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=csr.indices.dtype)
    dest = indptr[rows] + np.arange(len(rows)) - np.repeat(
        first, new_deg[touched]
    )
    spliced = np.zeros(len(indices), dtype=bool)
    spliced[dest] = True
    indices[dest] = cols
    stale = np.zeros(n_old, dtype=bool)
    stale[t_old] = True
    indices[~spliced] = csr.indices[~np.repeat(stale, deg)]
    out = CSRGraph.__new__(CSRGraph)
    out.indptr = indptr
    out.indices = indices
    out.node_ids = csr.node_ids + fresh if fresh else csr.node_ids
    out._dense_of = csr._dense_of  # already covers appended nodes
    compact_csr_indices(out)
    return out


class DeltaIndex(GraphPairIndex):
    """Dense pair interning that survives graph deltas without re-interning.

    Construction interns canonically exactly like the base class (so a
    fresh ``DeltaIndex`` is bit-compatible with a ``GraphPairIndex`` of
    the same pair); :meth:`apply_delta` then mutates the graphs, interns
    any new nodes *append-only*, splices the edge changes into fresh CSR
    arrays, and keeps degrees/exponents/canonical-ranks current.

    Attributes:
        rank1: ``int64[n1]`` canonical rank per dense g1 id — the dense
            id this node *would* have under a fresh canonical intern.
        rank2: canonical ranks for g2.
        unrank1: inverse permutation (``unrank1[rank1] == arange``).
        unrank2: inverse permutation for g2.
    """

    __slots__ = (
        "rank1", "rank2", "unrank1", "unrank2",
        "_sorted_keys1", "_sorted_keys2", "_pending",
    )

    def __init__(
        self,
        g1: Graph,
        g2: Graph,
        *,
        order1: "list[Node] | None" = None,
        order2: "list[Node] | None" = None,
    ) -> None:
        super().__init__(g1, g2, order1=order1, order2=order2)
        self._pending: "list[_Pending | None]" = [None, None]
        self._recompute_ranks()

    # ------------------------------------------------------------------
    # Delta application
    # ------------------------------------------------------------------
    def apply_delta(self, delta: GraphDelta) -> AppliedDelta:
        """Mutate the graphs per *delta* and absorb it into the index.

        The delta must be valid for the graphs
        (:func:`~repro.incremental.delta.validate_delta`); on return
        ``csr1``/``csr2`` describe the post-delta graphs.  Returns an
        :class:`AppliedDelta` holding the pre-delta adjacency and
        degrees (the incremental engine's subtraction terms read them).
        """
        old_csr1, old_csr2 = self.csr1, self.csr2
        old_deg1, old_deg2 = self.deg1, self.deg2
        apply_delta_to_graphs(self.g1, self.g2, delta)
        changed: list[np.ndarray] = []
        for side, csr, nodes, added, removed in (
            (1, old_csr1, delta.added_nodes1, delta.added_edges1,
             delta.removed_edges1),
            (2, old_csr2, delta.added_nodes2, delta.added_edges2,
             delta.removed_edges2),
        ):
            dense_of = csr._dense_of
            # Appended nodes take dense ids in canonical order.
            fresh = sorted(
                {
                    v
                    for v in chain(nodes, chain.from_iterable(added))
                    if v not in dense_of
                },
                key=node_sort_key,
            )
            start = csr.num_nodes
            dense_of.update(zip(fresh, range(start, start + len(fresh))))
            add = _directed(dense_of, added, len(added))
            rem = _directed(dense_of, removed, len(removed))
            touched = np.unique(np.concatenate([add[0], rem[0]]))
            changed.append(touched)
            if fresh or len(touched):
                self._pending[side - 1] = (fresh, touched, add, rem)
            if fresh:
                self._insert_ranks(side, fresh)
        self.maybe_compact()
        return AppliedDelta(
            old_csr1=old_csr1,
            old_csr2=old_csr2,
            old_deg1=old_deg1,
            old_deg2=old_deg2,
            changed1=changed[0],
            changed2=changed[1],
        )

    def maybe_compact(self) -> bool:
        """Splice the pending delta into fresh CSR arrays.

        Called last by :meth:`apply_delta`.  Dense ids are stable — only
        the adjacency arrays are rebuilt (downcast to ``uint32`` like
        the base interning) — so cached score tables and link arrays
        keyed by dense ids stay valid.  Degrees and exponents follow the
        new CSR.  Returns whether the adjacency changed (``False`` when
        nothing is pending, e.g. after a seed-only delta).
        """
        changed = False
        for side, pending in enumerate(self._pending, start=1):
            if pending is None:
                continue
            if side == 1:
                self.csr1 = _splice(self.csr1, self.deg1, pending)
                self.deg1 = self.csr1.degree_array()
                self.exp1 = degree_exponents(self.deg1)
            else:
                self.csr2 = _splice(self.csr2, self.deg2, pending)
                self.deg2 = self.csr2.degree_array()
                self.exp2 = degree_exponents(self.deg2)
            changed = True
        self._pending = [None, None]
        return changed

    def _recompute_ranks(self) -> None:
        """Build canonical ranks from scratch (at construction).

        Also materializes the per-side sorted key list that
        :meth:`_insert_ranks` bisects into, so later appends cost
        O(k log n + n) instead of re-sorting the whole node set.
        """
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

    def _insert_ranks(self, side: int, fresh: "list[Node]") -> None:
        """Splice appended nodes into the canonical rank order.

        *fresh* are the nodes just appended, in dense (canonical) order.
        Only their canonical positions need finding (one ``bisect``
        each over the sorted key list, against the pre-delta order);
        the permutation arrays are then rebuilt in a single vectorized
        pass — O(k log n) lookups plus O(n + k) array work per delta,
        never a Python re-sort of the whole node set.
        """
        import bisect

        if side == 1:
            unrank, sorted_keys = self.unrank1, self._sorted_keys1
        else:
            unrank, sorted_keys = self.unrank2, self._sorted_keys2
        start = len(unrank)
        n = start + len(fresh)
        # Positions are all computed against the *old* sorted order;
        # the new keys are themselves sorted (the intern order), so
        # np.insert places ties in ascending-key order correctly.
        new_keys = [node_sort_key(node) for node in fresh]
        positions = np.asarray(
            [bisect.bisect_left(sorted_keys, key) for key in new_keys],
            dtype=np.int64,
        )
        unrank = np.insert(
            unrank, positions, np.arange(start, n, dtype=np.int64)
        )
        rank = np.empty(n, dtype=np.int64)
        rank[unrank] = np.arange(n, dtype=np.int64)
        for key, pos in zip(reversed(new_keys), reversed(positions)):
            sorted_keys.insert(int(pos), key)
        if side == 1:
            self.rank1, self.unrank1 = rank, unrank
        else:
            self.rank2, self.unrank2 = rank, unrank
