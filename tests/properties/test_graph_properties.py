"""Property-based tests (hypothesis) for graph invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ordering import node_sort_key
from repro.graphs.csr import CSRGraph, dense_lookup
from repro.graphs.graph import Graph
from repro.graphs.ops import induced_subgraph, intersection, relabel, union

edge_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(
        lambda e: e[0] != e[1]
    ),
    max_size=120,
)


def build(edges) -> Graph:
    return Graph.from_edges(edges)


class TestGraphInvariants:
    @given(edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_handshake_lemma(self, edges):
        g = build(edges)
        assert sum(g.degree(n) for n in g.nodes()) == 2 * g.num_edges

    @given(edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_edges_iteration_consistent(self, edges):
        g = build(edges)
        listed = list(g.edges())
        assert len(listed) == g.num_edges
        for u, v in listed:
            assert g.has_edge(u, v)
            assert g.has_edge(v, u)

    @given(edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_copy_equals_original(self, edges):
        g = build(edges)
        assert g.copy() == g

    @given(edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_remove_all_edges_leaves_nodes(self, edges):
        g = build(edges)
        nodes = g.num_nodes
        for u, v in list(g.edges()):
            g.remove_edge(u, v)
        assert g.num_edges == 0
        assert g.num_nodes == nodes


class TestOpsInvariants:
    @given(edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_induced_subgraph_monotone(self, edges):
        g = build(edges)
        nodes = [n for n in g.nodes() if isinstance(n, int) and n < 15]
        sub = induced_subgraph(g, nodes)
        assert sub.num_edges <= g.num_edges
        for u, v in sub.edges():
            assert g.has_edge(u, v)

    @given(edge_lists, edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_intersection_commutative(self, e1, e2):
        a, b = build(e1), build(e2)
        assert intersection(a, b) == intersection(b, a)

    @given(edge_lists, edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_intersection_subset_of_union(self, e1, e2):
        a, b = build(e1), build(e2)
        inter = intersection(a, b)
        uni = union(a, b)
        for u, v in inter.edges():
            assert uni.has_edge(u, v)

    @given(edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_self_intersection_identity(self, edges):
        g = build(edges)
        assert intersection(g, g) == g

    @given(edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_relabel_round_trip(self, edges):
        g = build(edges)
        fwd = {n: ("x", n) for n in g.nodes()}
        back = {("x", n): n for n in g.nodes()}
        assert relabel(relabel(g, fwd), back) == g

    @given(edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_union_contains_both(self, edges):
        g = build(edges)
        assert union(g, Graph()) == g


#: Node-id kinds for the CSR wall: name -> (id of the i-th node, whether
#: CSRGraph densifies them through its lookup table or the dict path).
ID_KINDS = {
    "dense-int": (lambda i: i, True),
    "wide-int": (lambda i: 4 * i + 4, False),  # max id >= 4n
    "negative-int": (lambda i: i - 3, False),
    "numpy-int": (lambda i: np.int64(i), False),
    "str": (lambda i: f"u{i}", False),
    "tuple": (lambda i: (i % 3, i), False),
    "mixed": (lambda i: i if i % 2 else str(i), False),
}


@st.composite
def id_graphs(draw):
    """A graph of one id kind with isolated nodes and shuffled insertion."""
    kind = draw(st.sampled_from(sorted(ID_KINDS)))
    node_of, _ = ID_KINDS[kind]
    n = draw(st.integers(0, 25))
    ends = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(ends, ends), max_size=80))
    inserted = draw(st.permutations(range(n)))
    g = Graph.from_edges(
        [(node_of(u), node_of(v)) for u, v in edges if u != v],
        nodes=[node_of(i) for i in inserted],
    )
    return kind, g


class TestCSRWall:
    @given(id_graphs())
    @settings(max_examples=150, deadline=None)
    def test_csr_equals_per_node_reference(self, case):
        kind, g = case
        for order in (None, sorted(g.nodes(), key=node_sort_key)):
            csr = CSRGraph(g, order=order)
            nodes = list(g.nodes()) if order is None else order
            dense_of = {node: i for i, node in enumerate(nodes)}
            rows = [
                sorted(dense_of[v] for v in g.neighbors(node))
                for node in nodes
            ]
            indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
            np.cumsum([len(row) for row in rows], out=indptr[1:])
            indices = np.array(
                [v for row in rows for v in row], dtype=np.int64
            )
            assert csr.indptr.dtype == np.int64
            assert csr.indices.dtype == np.int64
            assert np.array_equal(csr.indptr, indptr)
            assert np.array_equal(csr.indices, indices)
            assert csr.node_ids == nodes
            assert csr._dense_of == dense_of
        dense_of = dict(zip(g.nodes(), range(g.num_nodes)))
        table = dense_lookup(dense_of) is not None
        assert table == (ID_KINDS[kind][1] and g.num_nodes > 0)
