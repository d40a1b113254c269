"""Frozen CSR (compressed sparse row) view of a :class:`~repro.graphs.graph.Graph`.

The CSR view is read-only and numpy-backed: node ids are densified to
``0..n-1`` and each node's neighbor ids live in a contiguous slice of one
array.  It is the execution substrate of every array backend — each
reconciliation interns both graphs into CSR through
:class:`~repro.graphs.pair_index.GraphPairIndex` — while the mutable
:class:`Graph` remains the canonical, editable representation.

One routine, :func:`assemble_csr`, turns ``(row, neighbor)`` dense-id
arrays into ``indptr``/``indices`` with one sort of a packed
``row * n + neighbor`` integer key.  The arrays come from one of two
sources:

- the arrays a bulk-built graph recorded
  (:meth:`Graph.recorded_edges`), each edge taken in both directions —
  no walk over the adjacency sets at all;
- otherwise a walk over the adjacency with C-level iterators (``map``,
  ``itertools.chain``, ``np.fromiter``), so interning a graph built in
  Python costs no Python bytecode per adjacency entry either.
"""

from __future__ import annotations

from itertools import chain
from typing import Hashable, Iterable, KeysView, Sequence, cast

import numpy as np

from repro.errors import NodeNotFoundError
from repro.graphs.graph import Graph

Node = Hashable


def dense_lookup(dense_of: dict[Node, int]) -> np.ndarray | None:
    """Dense-id table indexed by original id, or ``None`` if ids don't fit.

    *dense_of* maps every node to its dense id and lists its nodes in
    dense order.  A table is built when every node id is a plain
    non-negative ``int`` (``type(v) is int`` — ``bool`` and numpy
    integers take the dict path) and the largest id is below ``4n``, so
    the table stays within a few times the node map's size.  Ids then
    densify with one numpy gather (:func:`densify`) instead of one dict
    lookup each, which also spares the cache misses of looking ids up
    out of the map's insertion order.
    """
    n = len(dense_of)
    if not n or set(map(type, dense_of)) != {int}:
        return None
    ids = cast("KeysView[int]", dense_of.keys())
    top = max(ids)
    if min(ids) < 0 or top >= 4 * n:
        return None
    lookup = np.empty(top + 1, dtype=np.int64)
    lookup[np.fromiter(ids, dtype=np.int64, count=n)] = np.arange(n)
    return lookup


def densify(
    ids: Iterable[Node],
    count: int,
    dense_of: dict[Node, int],
    lookup: np.ndarray | None,
) -> np.ndarray:
    """The dense id of each of *count* node *ids*, as ``int64[count]``.

    *lookup* is :func:`dense_lookup` of *dense_of*.  C-level iteration
    either way — no Python bytecode per id.
    """
    if lookup is not None:
        return lookup[np.fromiter(ids, dtype=np.int64, count=count)]
    return np.fromiter(
        map(dense_of.__getitem__, ids), dtype=np.int64, count=count
    )


def flatten_adjacency(
    adj: dict[Node, set[Node]],
    dense_of: dict[Node, int],
    lookup: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's degree and every neighbor's dense id, in live order.

    Walks *adj* in dict order and each neighbor set in its iteration
    order with C-level iterators (no Python bytecode per entry).
    *dense_of* maps every node to its dense id and *lookup* is its
    :func:`dense_lookup`.  Returns ``(degrees, neighbors)`` as int64
    arrays of length ``n`` and ``2m``.
    """
    n = len(adj)
    degrees = np.fromiter(map(len, adj.values()), dtype=np.int64, count=n)
    neighbors = densify(
        chain.from_iterable(adj.values()), int(degrees.sum()), dense_of, lookup
    )
    return degrees, neighbors


def assemble_csr(
    row: np.ndarray, neighbor: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the adjacency entries ``row -> neighbor``.

    *row*/*neighbor* are dense ids in ``[0, n)``, in any order and with
    repeats allowed.  One sort of the packed ``row * n + neighbor`` key
    orders every row and every row's neighbor slice at once; adjacent
    equal keys (repeated entries) are dropped.  The key is ``uint32``
    while ``n * n`` fits it (up to 65,536 nodes) — half the bytes of
    ``int64``, and more than twice as fast to sort.  Returns
    ``int64[n + 1]`` offsets and ``int64`` neighbor ids.
    """
    if n * n - 1 > np.iinfo(np.int64).max:
        raise ValueError(  # pragma: no cover - needs a > 3e9-node graph
            f"{n} nodes overflow the int64 (src * n + dst) sort key"
        )
    packed = np.uint32 if n * n <= 2**32 else np.int64
    width = packed(max(n, 1))
    key = row.astype(packed)
    key *= width
    np.add(key, neighbor, out=key, casting="unsafe")
    key.sort()
    if len(key) > 1:
        fresh = np.empty(len(key), dtype=bool)
        fresh[0] = True
        np.not_equal(key[1:], key[:-1], out=fresh[1:])
        if not fresh.all():
            key = key[fresh]
    indptr = np.empty(n + 1, dtype=np.int64)
    indptr[:n] = np.searchsorted(key, np.arange(n, dtype=packed) * width)
    indptr[n] = len(key)
    indices = np.empty(len(key), dtype=np.int64)
    np.remainder(key, width, out=indices)
    return indptr, indices


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
        self.node_ids: list[Node] = nodes
        self._dense_of: dict[Node, int] = dense_of
        lookup = dense_lookup(dense_of)
        # Each row's dense id, in insertion order.
        ranks = densify(adj, n, dense_of, lookup)
        recorded = graph.recorded_edges()
        if recorded is not None:
            # Every recorded edge in both directions.
            src, dst = recorded
            row = ranks[np.concatenate((src, dst))]
            neighbor = ranks[np.concatenate((dst, src))]
        else:
            degrees, neighbor = flatten_adjacency(adj, dense_of, lookup)
            row = np.repeat(ranks, degrees)
        self.indptr, self.indices = assemble_csr(row, neighbor, n)

    # ------------------------------------------------------------------
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
