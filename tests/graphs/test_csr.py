"""Unit tests for the frozen CSR view."""

import numpy as np
import pytest

from repro.errors import NodeNotFoundError
from repro.graphs.csr import CSRGraph, dense_lookup
from repro.graphs.graph import Graph


#: One id map per densify path: plain small ints hit CSRGraph's lookup
#: table, strings its dict path.
ID_PATHS = {"table": lambda i: i, "dict": lambda i: f"n{i}"}


def _path_graph(path):
    """The path 0-1-2 under *path*'s ids, checked to take that path."""
    node = ID_PATHS[path]
    g = Graph.from_edges([(node(0), node(1)), (node(1), node(2))])
    dense_of = dict(zip(g.nodes(), range(g.num_nodes)))
    table = dense_lookup(dense_of) is not None
    assert table == (path == "table")
    return g, node


@pytest.fixture
def csr(small_pa):
    return CSRGraph(small_pa)


class TestCSRConstruction:
    def test_sizes_match(self, small_pa, csr):
        assert csr.num_nodes == small_pa.num_nodes
        assert csr.num_edges == small_pa.num_edges

    def test_indptr_monotone(self, csr):
        assert np.all(np.diff(csr.indptr) >= 0)

    def test_neighbors_sorted(self, csr):
        for i in range(min(50, csr.num_nodes)):
            nbrs = csr.neighbors(i)
            assert np.all(np.diff(nbrs) > 0)

    def test_degrees_match(self, small_pa, csr):
        for node in list(small_pa.nodes())[:100]:
            dense = csr.dense_id(node)
            assert csr.degree(dense) == small_pa.degree(node)

    def test_degree_array(self, small_pa, csr):
        degs = csr.degree_array()
        assert int(degs.sum()) == 2 * small_pa.num_edges

    @pytest.mark.parametrize("path", sorted(ID_PATHS))
    def test_custom_order(self, path):
        g, node = _path_graph(path)
        csr = CSRGraph(g, order=[node(2), node(1), node(0)])
        assert csr.node_ids == [node(2), node(1), node(0)]
        assert csr.degree(0) == g.degree(node(2))
        assert csr.indptr.tolist() == [0, 1, 3, 4]
        assert csr.indices.tolist() == [1, 0, 2, 1]

    @pytest.mark.parametrize("path", sorted(ID_PATHS))
    def test_order_must_cover_all_nodes(self, path):
        g, node = _path_graph(path)
        with pytest.raises(ValueError, match="cover every node"):
            CSRGraph(g, order=[node(0), node(1)])

    @pytest.mark.parametrize("path", sorted(ID_PATHS))
    def test_order_rejects_duplicates(self, path):
        g, node = _path_graph(path)
        with pytest.raises(ValueError, match="duplicate"):
            CSRGraph(g, order=[node(0), node(0), node(1)])

    @pytest.mark.parametrize("path", sorted(ID_PATHS))
    def test_order_rejects_unknown_nodes(self, path):
        g, node = _path_graph(path)
        with pytest.raises(NodeNotFoundError) as err:
            CSRGraph(g, order=[node(0), node(7), node(2), node(9)])
        assert err.value.node == node(7)


class TestCSRQueries:
    def test_has_edge_agrees_with_graph(self, small_pa, csr):
        nodes = list(small_pa.nodes())[:40]
        for u in nodes:
            for v in nodes:
                if u == v:
                    continue
                assert csr.has_edge(
                    csr.dense_id(u), csr.dense_id(v)
                ) == small_pa.has_edge(u, v)

    def test_dense_id_missing_raises(self, csr):
        with pytest.raises(NodeNotFoundError):
            csr.dense_id("nope")

    def test_empty_graph(self):
        csr = CSRGraph(Graph())
        assert csr.num_nodes == 0
        assert csr.num_edges == 0

    def test_repr(self, csr):
        assert "CSRGraph" in repr(csr)
