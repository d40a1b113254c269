"""Frozen CSR (compressed sparse row) view of a :class:`~repro.graphs.graph.Graph`.

The CSR view is read-only and numpy-backed: node ids are densified to
``0..n-1`` and each node's neighbor ids live in a contiguous slice of one
array.  It is the execution substrate of every array backend — each
reconciliation interns both graphs into CSR through
:class:`~repro.graphs.pair_index.GraphPairIndex` — while the mutable
:class:`Graph` remains the canonical, editable representation.

Construction iterates the adjacency with C-level iterators (``map``,
``itertools.chain``, ``np.fromiter``) and orders every row with one sort of
a packed ``row * n + neighbor`` int64 key, so interning costs no Python
bytecode per adjacency entry.
"""

from __future__ import annotations

from itertools import chain
from typing import Hashable, KeysView, Sequence, cast

import numpy as np

from repro.errors import NodeNotFoundError
from repro.graphs.graph import Graph

Node = Hashable


def _dense_lookup(
    adj: dict[Node, set[Node]], ranks: np.ndarray
) -> np.ndarray | None:
    """Dense-id table indexed by original id, or ``None`` if ids don't fit.

    Used when every node id is a plain non-negative ``int`` (``type(v)
    is int`` — ``bool`` and numpy integers take the dict path) and the
    largest id is below ``4n``, so the table stays within a few times
    the node map's size.  Neighbor ids then densify with one numpy
    gather instead of one dict lookup per adjacency entry.
    """
    n = len(adj)
    if not n or set(map(type, adj)) != {int}:
        return None
    ids = cast("KeysView[int]", adj.keys())
    top = max(ids)
    if min(ids) < 0 or top >= 4 * n:
        return None
    lookup = np.empty(top + 1, dtype=np.int64)
    lookup[np.fromiter(ids, dtype=np.int64, count=n)] = ranks
    return lookup


def flatten_adjacency(
    adj: dict[Node, set[Node]], dense_of: dict[Node, int], ranks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's degree and every neighbor's dense id, in live order.

    Walks *adj* in dict order and each neighbor set in its iteration
    order with C-level iterators (no Python bytecode per entry).
    *ranks* holds each row's dense id in dict order; *dense_of* maps
    every node to its dense id.  Returns ``(degrees, neighbors)`` as
    int64 arrays of length ``n`` and ``2m``.
    """
    n = len(adj)
    degrees = np.fromiter(map(len, adj.values()), dtype=np.int64, count=n)
    total = int(degrees.sum())
    neighbors = chain.from_iterable(adj.values())
    lookup = _dense_lookup(adj, ranks)
    if lookup is not None:
        dst = lookup[np.fromiter(neighbors, dtype=np.int64, count=total)]
    else:
        dst = np.fromiter(
            map(dense_of.__getitem__, neighbors), dtype=np.int64, count=total
        )
    return degrees, dst


class CSRGraph:
    """Immutable CSR adjacency built from a :class:`Graph`.

    Attributes:
        indptr: ``int64[n + 1]`` — neighbor-slice offsets per dense node id.
        indices: ``int64[2m]`` — concatenated, per-node-sorted neighbor ids
            (dense); :class:`~repro.graphs.pair_index.GraphPairIndex`
            compacts it to ``uint32`` in place
            (:func:`~repro.graphs.pair_index.compact_csr_indices`).
        node_ids: the original node id for each dense id.
    """

    __slots__ = ("indptr", "indices", "node_ids", "_dense_of")

    def __init__(self, graph: Graph, order: Sequence[Node] | None = None):
        adj = graph.adjacency()
        nodes = list(order) if order is not None else list(adj)
        n = len(nodes)
        dense_of = dict(zip(nodes, range(n)))
        if order is not None:
            if len(dense_of) != n:
                raise ValueError("order contains duplicate nodes")
            if not dense_of.keys() <= adj.keys():
                raise NodeNotFoundError(
                    next(node for node in nodes if node not in adj)
                )
            if n != len(adj):
                raise ValueError("order must cover every node exactly once")
        if n * n - 1 > np.iinfo(np.int64).max:
            raise ValueError(  # pragma: no cover - needs a > 3e9-node graph
                f"{n} nodes overflow the int64 (src * n + dst) sort key"
            )
        self.node_ids: list[Node] = nodes
        self._dense_of: dict[Node, int] = dense_of
        # Walk the adjacency in insertion order with C-level iterators:
        # each row's dense rank, its degree, and every neighbor's dense id.
        ranks = np.fromiter(
            map(dense_of.__getitem__, adj), dtype=np.int64, count=n
        )
        degrees, dst = flatten_adjacency(adj, dense_of, ranks)
        # One integer sort of the packed (row, neighbor) key orders every
        # row and every row's neighbor slice at once.
        key = np.repeat(ranks * n, degrees)
        key += dst
        key.sort()
        dense_degrees = np.zeros(n, dtype=np.int64)
        dense_degrees[ranks] = degrees
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(dense_degrees, out=indptr[1:])
        key %= max(n, 1)
        self.indptr = indptr
        self.indices = key

    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        node_ids: Sequence[Node],
    ) -> "CSRGraph":
        """Wrap prebuilt CSR arrays (e.g. memory-mapped) without a Graph.

        The arrays are adopted as-is — callers guarantee the CSR
        invariants (``indptr`` monotone with ``indptr[-1] == len
        (indices)``, per-row-sorted dense neighbor ids).  Used by
        :meth:`repro.graphs.pair_index.GraphPairIndex.open_mmap` to
        stream adjacency from disk.
        """
        self = cls.__new__(cls)
        self.indptr = indptr
        self.indices = indices
        self.node_ids = list(node_ids)
        self._dense_of = {
            node: i for i, node in enumerate(self.node_ids)
        }
        return self

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.indptr[-1]) // 2

    def dense_id(self, node: Node) -> int:
        """Map an original node id to its dense ``0..n-1`` id."""
        try:
            return self._dense_of[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def neighbors(self, dense: int) -> np.ndarray:
        """Neighbor dense-ids of dense node *dense* (sorted, read-only view)."""
        return self.indices[self.indptr[dense] : self.indptr[dense + 1]]

    def degree(self, dense: int) -> int:
        """Degree of dense node *dense*."""
        return int(self.indptr[dense + 1] - self.indptr[dense])

    def degree_array(self) -> np.ndarray:
        """All degrees as ``int64[n]`` indexed by dense id."""
        return np.diff(self.indptr)

    def has_edge(self, u: int, v: int) -> bool:
        """Edge test between dense ids via binary search (O(log deg))."""
        nbrs = self.neighbors(u)
        pos = int(np.searchsorted(nbrs, v))
        return pos < len(nbrs) and int(nbrs[pos]) == v

    def __repr__(self) -> str:
        return (
            f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
        )
