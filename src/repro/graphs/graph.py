"""Undirected simple graph backed by adjacency sets.

This is the workhorse substrate of the reproduction.  It is deliberately
minimal and fast: integer (or any hashable) node ids, adjacency stored as
``dict[node, set[node]]``, O(1) edge membership, O(deg) neighbor iteration.
No self-loops and no parallel edges — the reconciliation algorithm (and the
models in the paper) operate on simple graphs; generators that naturally
produce multi-edges (preferential attachment) deduplicate on insertion.

Iteration order is part of the contract: :meth:`Graph.nodes` follows
insertion order and each neighbor set iterates in its hash-table order,
and seeded samplers draw one random number per :meth:`Graph.edges` item.
:meth:`Graph.from_dense_edges` builds a graph from numpy edge arrays in
bulk while reproducing the sequential ``add_node``/``add_edge`` loop's
order exactly, so array-speed generators keep every seeded stream.

A bulk-built graph also keeps the edge arrays it was built from
(:meth:`Graph.recorded_edges`), so interning can assemble the CSR from
them instead of walking the sets.  Those arrays describe the graph only
until it first changes: every mutator that changes it (``add_node`` of a
new node, ``add_edge`` of a new edge, ``remove_edge``, ``remove_node``)
drops them, and :meth:`Graph.copy` shares them.  Code that edits the
live :meth:`Graph.adjacency` or a neighbor set directly breaks this rule
as it breaks every other one.
"""

from __future__ import annotations

from itertools import islice, repeat
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError

Node = Hashable
Edge = tuple[Node, Node]


class Graph:
    """An undirected simple graph.

    Example::

        g = Graph.from_edges([(0, 1), (1, 2)])
        g.degree(1)            # 2
        sorted(g.neighbors(1)) # [0, 2]
    """

    __slots__ = ("_adj", "_num_edges", "_arrays")

    def __init__(self) -> None:
        self._adj: dict[Node, set[Node]] = {}
        self._num_edges: int = 0
        # (src, dst) from from_dense_edges; None once the graph changes
        # or when it was built in Python.
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, edges: Iterable[Edge], nodes: Iterable[Node] = ()
    ) -> "Graph":
        """Build a graph from an iterable of edges (plus optional isolated
        *nodes*).  Duplicate edges and reversed duplicates are collapsed;
        self-loops are rejected."""
        g = cls()
        for node in nodes:
            g.add_node(node)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    @classmethod
    def from_dense_edges(
        cls,
        node_ids: Sequence[Node],
        src: np.ndarray,
        dst: np.ndarray,
        first: Sequence[int] | np.ndarray = (),
    ) -> "Graph":
        """Bulk-build the graph that this sequential loop builds::

            g = Graph()
            for i in first:
                g.add_node(node_ids[i])
            for s, d in zip(src, dst):
                g.add_edge(node_ids[s], node_ids[d])

        *src*/*dst* are dense indices into *node_ids*, in insertion
        order; *first* lists the dense ids added before any edge (e.g.
        isolated nodes).  The result equals the loop's in iteration
        order, not just content:

        - nodes enter the dict in order of first appearance — *first*,
          then each edge's ``src`` before its ``dst``;
        - each neighbor set is ``set(list)`` over that node's neighbors
          in edge order, which inserts one element at a time exactly
          like repeated ``add`` and so yields the same hash table.

        Duplicate and reversed edges collapse as in :meth:`add_edge`;
        a self-loop raises :class:`GraphError`.  Node objects are shared
        from *node_ids*, so the graph allocates no id per edge.  Costs
        one int64 sort of ``2m`` keys plus C-level set construction — no
        Python bytecode per edge.

        The graph keeps a read-only copy of *src*/*dst*, renumbered to
        positions in its node order, for :meth:`recorded_edges`.
        """
        n = len(node_ids)
        src = np.asarray(src)
        dst = np.asarray(dst)
        first = np.asarray(first, dtype=np.int64)
        m = len(src)
        if len(dst) != m:
            raise ValueError(f"src has {m} entries but dst has {len(dst)}")
        for ids in (src, dst, first):
            if len(ids) and (ids.min() < 0 or ids.max() >= n):
                raise ValueError(f"dense ids must lie in [0, {n})")
        objs = np.fromiter(node_ids, dtype=object, count=n)
        loops = np.flatnonzero(src == dst)
        if len(loops):
            raise GraphError(
                f"self-loops are not allowed (node {objs[src[loops[0]]]!r})"
            )
        two_m = 2 * m
        if n * two_m > np.iinfo(np.int64).max:
            raise ValueError(  # pragma: no cover - needs ~1e18 entries
                f"{n} nodes x {two_m} entries overflow the int64 sort key"
            )
        # Adjacency entry 2e is src[e] -> dst[e] and 2e + 1 the reverse,
        # so entry p's neighbor is entry p ^ 1's row.  One sort of the
        # packed (row, entry) key groups entries by row, each row's in
        # insertion order.
        index = np.int32 if max(n, two_m) < 2**31 else np.int64
        rows = np.empty(two_m, dtype=index)
        rows[0::2] = src
        rows[1::2] = dst
        key = rows.astype(np.int64)
        key *= two_m
        key += np.arange(two_m, dtype=np.int64)
        key.sort()
        key %= max(two_m, 1)
        pos = key.astype(index)
        del key
        degrees = np.bincount(rows, minlength=n)
        neighbors = objs[rows[pos ^ 1]].tolist()
        # Node order: *first* by first mention, then every other node by
        # the insertion position of its first edge entry.
        touched = np.flatnonzero(degrees)
        rank = np.full(n, -1, dtype=np.int64)
        rank[touched] = pos[(np.cumsum(degrees) - degrees)[touched]]
        rank[touched] += len(first)
        del rows, pos, touched
        uniq, at = np.unique(first, return_index=True)
        rank[uniq] = at
        present = np.flatnonzero(rank >= 0)
        placed = present[np.argsort(rank[present])]
        order = placed.tolist()
        # One set per dense id, filled from its slice of *neighbors*.
        flat = iter(neighbors)
        sets = list(map(set, map(islice, repeat(flat), degrees.tolist())))
        del neighbors, flat
        g = cls()
        keys = objs[order].tolist()
        g._adj = dict(zip(keys, map(sets.__getitem__, order)))
        g._num_edges = sum(map(len, sets)) // 2
        # Equal ids in the node table collapse into one dict key; the
        # arrays would then name one node twice, so they are not kept.
        if len(g._adj) == len(order):
            dense = np.int32 if len(order) < 2**31 else np.int64
            position = np.empty(n, dtype=dense)  # dense id -> nodes() slot
            position[placed] = np.arange(len(order), dtype=dense)
            ends = (
                position[src.astype(np.intp, copy=False)],
                position[dst.astype(np.intp, copy=False)],
            )
            for arr in ends:
                arr.flags.writeable = False
            g._arrays = ends
        return g

    def recorded_edges(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The edge arrays :meth:`from_dense_edges` built this graph from.

        Returns read-only ``(src, dst)`` arrays of positions in
        :meth:`nodes` order (``int32`` when the node count fits): every
        edge ``{nodes[src[e]], nodes[dst[e]]}`` is in the graph and every
        edge of the graph is listed at least once, possibly reversed or
        repeated.  ``None`` if the graph was built in Python or has
        changed since it was built.
        """
        return self._arrays

    def copy(self) -> "Graph":
        """Return a deep structural copy (nodes and edges; sets are fresh).

        The copy shares the read-only :meth:`recorded_edges` arrays.
        """
        g = Graph()
        g._adj = {node: set(nbrs) for node, nbrs in self._adj.items()}
        g._num_edges = self._num_edges
        g._arrays = self._arrays
        return g

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add *node* (no-op if already present)."""
        if node not in self._adj:
            self._adj[node] = set()
            self._arrays = None

    def add_edge(self, u: Node, v: Node) -> bool:
        """Add undirected edge ``{u, v}``, creating endpoints as needed.

        Returns ``True`` if the edge was new, ``False`` if it already
        existed.  Self-loops are rejected with :class:`GraphError` because
        the matching algorithm's similarity-witness semantics assume simple
        graphs.
        """
        if u == v:
            raise GraphError(f"self-loops are not allowed (node {u!r})")
        adj = self._adj
        if u not in adj:
            adj[u] = set()
        if v not in adj:
            adj[v] = set()
        if v in adj[u]:
            return False
        adj[u].add(v)
        adj[v].add(u)
        self._num_edges += 1
        self._arrays = None
        return True

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Add many edges; return the number of edges that were new."""
        added = 0
        for u, v in edges:
            if self.add_edge(u, v):
                added += 1
        return added

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove edge ``{u, v}``; raise :class:`EdgeNotFoundError` if absent."""
        adj = self._adj
        if u not in adj or v not in adj[u]:
            raise EdgeNotFoundError(u, v)
        adj[u].discard(v)
        adj[v].discard(u)
        self._num_edges -= 1
        self._arrays = None

    def remove_node(self, node: Node) -> None:
        """Remove *node* and all incident edges."""
        adj = self._adj
        if node not in adj:
            raise NodeNotFoundError(node)
        nbrs = adj.pop(node)
        for other in nbrs:
            adj[other].discard(node)
        self._num_edges -= len(nbrs)
        self._arrays = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_node(self, node: Node) -> bool:
        """Return whether *node* is in the graph."""
        return node in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        """Return whether edge ``{u, v}`` is in the graph."""
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def neighbors(self, node: Node) -> set[Node]:
        """Return the neighbor set of *node*.

        The returned set is the live internal set for speed; callers must
        treat it as read-only (copy before mutating).
        """
        try:
            return self._adj[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degree(self, node: Node) -> int:
        """Return the degree of *node*."""
        try:
            return len(self._adj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degrees(self) -> dict[Node, int]:
        """Return a fresh ``{node: degree}`` mapping."""
        return {node: len(nbrs) for node, nbrs in self._adj.items()}

    def max_degree(self) -> int:
        """Return the maximum degree (0 for an empty graph)."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    def common_neighbors(self, u: Node, v: Node) -> set[Node]:
        """Return the set of common neighbors of *u* and *v*."""
        nu = self.neighbors(u)
        nv = self.neighbors(v)
        if len(nu) > len(nv):
            nu, nv = nv, nu
        return {w for w in nu if w in nv}

    # ------------------------------------------------------------------
    # Iteration / sizing
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        return self._num_edges

    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes in insertion order."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges, each reported once as ``(u, v)``.

        ``u`` is the endpoint that entered the graph first (insertion
        order of :meth:`nodes`), not the smaller id:
        ``Graph.from_edges([(5, 1)]).edges()`` yields ``(5, 1)``.
        """
        seen: set[Node] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def adjacency(self) -> dict[Node, set[Node]]:
        """Return the live adjacency mapping (read-only by convention)."""
        return self._adj

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def __len__(self) -> int:
        return len(self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return (
            f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
        )
