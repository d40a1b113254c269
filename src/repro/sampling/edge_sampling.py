"""Independent edge deletion — the paper's primary copy model (§3.1).

Each edge of the true graph ``G`` survives in copy ``G_i`` independently
with probability ``s_i``.  Optional generalizations mentioned (but not
analyzed) in the paper are also provided: per-copy noise edges not present
in ``G`` and independent vertex deletion.
"""

from __future__ import annotations

import random
from itertools import repeat, starmap
from typing import Hashable

import numpy as np

from repro.graphs.csr import dense_lookup, flatten_adjacency
from repro.graphs.graph import Graph
from repro.sampling.pair import GraphPair
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import check_non_negative, check_probability

Node = Hashable


def sample_edges(graph: Graph, s: float, seed: object = None) -> Graph:
    """Keep each edge of *graph* independently with probability *s*.

    All nodes are preserved (possibly isolated), matching the paper's
    model where the vertex set is shared across copies.  Draws exactly
    one ``random()`` per edge in ``graph.edges()`` order and keeps the
    edge when the draw is below *s*; the copy is built in bulk with
    :meth:`Graph.from_dense_edges` and shares *graph*'s node objects.
    """
    check_probability("s", s)
    rng = ensure_rng(seed)
    src, dst = _edge_arrays(graph)
    draws = np.fromiter(
        starmap(rng.random, repeat((), len(src))),
        dtype=np.float64,
        count=len(src),
    )
    keep = draws < s
    del draws
    return Graph.from_dense_edges(
        list(graph.nodes()), src[keep], dst[keep], np.arange(graph.num_nodes)
    )


def _edge_arrays(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """``graph.edges()`` as dense ``(src, dst)`` arrays, in the same order.

    Dense ids are positions in ``graph.nodes()``.  ``edges()`` reports
    each adjacency entry whose neighbor entered the graph after its row,
    so the flattened live adjacency filtered on ``dst > src`` is exactly
    that sequence.
    """
    adj = graph.adjacency()
    n = len(adj)
    dense_of = dict(zip(adj, range(n)))
    degrees, neighbors = flatten_adjacency(
        adj, dense_of, dense_lookup(dense_of)
    )
    index = np.int32 if n < 2**31 else np.int64
    rows = np.repeat(np.arange(n, dtype=index), degrees)
    later = neighbors > rows
    return rows[later], neighbors[later].astype(index)


def add_noise_edges(graph: Graph, count: int, seed: object = None) -> Graph:
    """Return a copy of *graph* with *count* uniformly random non-edges
    added (the "noise edges" generalization of §3.1)."""
    check_non_negative("count", count)
    rng = ensure_rng(seed)
    out = graph.copy()
    nodes = list(out.nodes())
    if len(nodes) < 2:
        return out
    added = 0
    attempts = 0
    max_attempts = 100 * (count + 1)
    choice = rng.choice
    while added < count and attempts < max_attempts:
        attempts += 1
        u = choice(nodes)
        v = choice(nodes)
        if u != v and not out.has_edge(u, v):
            out.add_edge(u, v)
            added += 1
    return out


def delete_vertices(graph: Graph, prob: float, seed: object = None) -> Graph:
    """Return a copy of *graph* with each vertex (and incident edges)
    deleted independently with probability *prob* (§3.1 generalization)."""
    check_probability("prob", prob)
    rng = ensure_rng(seed)
    random_ = rng.random
    survivors = [n for n in graph.nodes() if random_() >= prob]
    keep = set(survivors)
    out = Graph()
    for node in survivors:
        out.add_node(node)
    for u, v in graph.edges():
        if u in keep and v in keep:
            out.add_edge(u, v)
    return out


def independent_copies(
    graph: Graph,
    s1: float,
    s2: float | None = None,
    noise_edges: int = 0,
    vertex_deletion: float = 0.0,
    seed: object = None,
) -> GraphPair:
    """Generate the paper's two imperfect realizations of *graph*.

    Args:
        graph: the true underlying network ``G``.
        s1: edge survival probability of the first copy.
        s2: edge survival probability of the second copy (defaults to
            ``s1``; the theory section takes ``s1 = s2 = s``).
        noise_edges: number of random spurious edges to add to each copy
            (0 = the base model).
        vertex_deletion: probability of deleting each vertex per copy
            (0 = the base model).
        seed: RNG seed; copies use decorrelated sub-streams.

    Returns:
        :class:`GraphPair` whose ground truth maps every node surviving in
        both copies to itself.
    """
    check_probability("s1", s1)
    if s2 is None:
        s2 = s1
    check_probability("s2", s2)
    check_probability("vertex_deletion", vertex_deletion)
    rngs: list[random.Random] = spawn_rngs(seed, 6)
    g1 = sample_edges(graph, s1, rngs[0])
    g2 = sample_edges(graph, s2, rngs[1])
    if vertex_deletion > 0.0:
        g1 = delete_vertices(g1, vertex_deletion, rngs[2])
        g2 = delete_vertices(g2, vertex_deletion, rngs[3])
    if noise_edges > 0:
        g1 = add_noise_edges(g1, noise_edges, rngs[4])
        g2 = add_noise_edges(g2, noise_edges, rngs[5])
    identity = {node: node for node in g1.nodes() if g2.has_node(node)}
    return GraphPair(g1=g1, g2=g2, identity=identity)
