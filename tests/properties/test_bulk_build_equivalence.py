"""Property wall: the bulk graph builders equal their sequential loops.

:meth:`Graph.from_dense_edges` and the array-speed
:func:`~repro.sampling.edge_sampling.sample_edges` must reproduce the
``add_node``/``add_edge`` loops they replace in iteration order, not just
content: dict key order, every neighbor set's iteration order and
``num_edges``.  Seeded samplers draw one random number per ``edges()``
item, so any order drift would silently change every downstream graph.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.sampling.edge_sampling import sample_edges
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_probability


def sample_edges_oracle(graph: Graph, s: float, seed: object = None) -> Graph:
    """The per-edge sampler ``sample_edges`` replaced, kept verbatim."""
    check_probability("s", s)
    rng = ensure_rng(seed)
    random_ = rng.random
    out = Graph()
    for node in graph.nodes():
        out.add_node(node)
    for u, v in graph.edges():
        if random_() < s:
            out.add_edge(u, v)
    return out


def loop_build(node_ids, src, dst, first) -> Graph:
    g = Graph()
    for i in first:
        g.add_node(node_ids[i])
    for s, d in zip(src, dst):
        g.add_edge(node_ids[s], node_ids[d])
    return g


def assert_same_order(got: Graph, want: Graph) -> None:
    assert list(got.nodes()) == list(want.nodes())
    for v in want.nodes():
        assert list(got.neighbors(v)) == list(want.neighbors(v)), v
    assert got.num_edges == want.num_edges
    assert list(got.edges()) == list(want.edges())


def id_pool(kind: str, n: int) -> list:
    """*n* distinct node ids.  ``"dense"`` ints take the lookup-table
    path of :func:`~repro.graphs.csr.flatten_adjacency`; ``"int"`` ones
    include ``-1``/``-2`` (equal hashes) and multiples of 8 that collide
    in small hash tables."""
    if kind == "dense":
        return list(range(n))[::-1]
    if kind == "int":
        return ([-1, -2] + [(-1) ** i * 8 * i for i in range(1, n)])[:n]
    if kind == "str":
        return [f"user-{i}" for i in range(n)]
    return [i if i % 2 else f"u{i}" for i in range(n)]


@st.composite
def dense_edge_lists(draw):
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["dense", "int", "str", "mixed"]))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=160,
        )
    )
    first = draw(st.lists(st.integers(0, n - 1), max_size=12))
    return id_pool(kind, n), pairs, first


@st.composite
def edited_graphs(draw):
    """Loop-built graphs with isolated nodes and removed edges/nodes."""
    node_ids, pairs, first = draw(dense_edge_lists())
    src, dst = [a for a, _ in pairs], [b for _, b in pairs]
    g = loop_build(node_ids, src, dst, first)
    edges = list(g.edges())
    picks = st.integers(0, max(len(edges) - 1, 0))
    for i in draw(st.lists(picks, max_size=8)):
        if edges and g.has_edge(*edges[i]):
            g.remove_edge(*edges[i])
    if draw(st.booleans()) and g.num_nodes > 1:
        g.remove_node(next(iter(g.nodes())))
    return g


class TestFromDenseEdges:
    @given(dense_edge_lists())
    @settings(max_examples=150, deadline=None)
    def test_equals_sequential_loop(self, case):
        node_ids, pairs, first = case
        src = np.array([a for a, _ in pairs], dtype=np.int64)
        dst = np.array([b for _, b in pairs], dtype=np.int64)
        want = loop_build(node_ids, src.tolist(), dst.tolist(), first)
        got = Graph.from_dense_edges(node_ids, src, dst, first)
        assert_same_order(got, want)

    @given(dense_edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_object_array_ids_are_shared(self, case):
        node_ids, pairs, first = case
        objs = np.empty(len(node_ids), dtype=object)
        objs[:] = node_ids
        src = np.array([a for a, _ in pairs], dtype=np.int32)
        dst = np.array([b for _, b in pairs], dtype=np.int32)
        got = Graph.from_dense_edges(objs, src, dst, first)
        pool = {id(v) for v in node_ids}
        for v in got.nodes():
            assert id(v) in pool
            assert all(id(w) in pool for w in got.neighbors(v))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph.from_dense_edges(["a", "b"], [0, 1], [1, 1])

    @pytest.mark.parametrize("src,dst", [([0], [2]), ([-1], [0])])
    def test_out_of_range_rejected(self, src, dst):
        with pytest.raises(ValueError):
            Graph.from_dense_edges(["a", "b"], src, dst)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_dense_edges(["a", "b"], [0], [1, 0])

    def test_empty(self):
        assert Graph.from_dense_edges([], [], []) == Graph()
        g = Graph.from_dense_edges(["a", "b", "c"], [], [], first=[2, 0])
        assert list(g.nodes()) == ["c", "a"]


class TestSampleEdgesMatchesLoop:
    @given(
        edited_graphs(), st.sampled_from([0.0, 0.37, 1.0]), st.integers(0, 99)
    )
    @settings(max_examples=120, deadline=None)
    def test_same_copy_and_same_stream(self, graph, s, seed):
        rng_want, rng_got = random.Random(seed), random.Random(seed)
        want = sample_edges_oracle(graph, s, rng_want)
        got = sample_edges(graph, s, rng_got)
        assert_same_order(got, want)
        # Callers sharing one Random see the same next draw.
        assert rng_got.random() == rng_want.random()
