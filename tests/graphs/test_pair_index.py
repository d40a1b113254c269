"""Unit tests for the dense-interning GraphPairIndex."""

import numpy as np
import pytest

from repro.core.ordering import node_sort_key
from repro.errors import NodeNotFoundError
from repro.graphs.graph import Graph
from repro.graphs.pair_index import GraphPairIndex, degree_exponents
from repro.graphs.stats import (
    average_degree,
    degree_array,
    degree_histogram,
)


@pytest.fixture
def index(pa_pair):
    return GraphPairIndex(pa_pair.g1, pa_pair.g2)


class TestDegreeExponents:
    def test_matches_bit_length(self):
        degrees = np.array([0, 1, 2, 3, 4, 7, 8, 1023, 1024, 10**9])
        exps = degree_exponents(degrees)
        expected = [int(d).bit_length() - 1 for d in degrees]
        assert exps.tolist() == expected

    def test_empty(self):
        assert degree_exponents(np.empty(0, dtype=np.int64)).size == 0


class TestInterning:
    def test_canonical_order(self, index, pa_pair):
        assert index.csr1.node_ids == sorted(
            pa_pair.g1.nodes(), key=node_sort_key
        )
        assert index.csr2.node_ids == sorted(
            pa_pair.g2.nodes(), key=node_sort_key
        )

    def test_dense_roundtrip(self, index, pa_pair):
        for node in list(pa_pair.g1.nodes())[:50]:
            assert index.node1(index.dense1(node)) == node
        for node in list(pa_pair.g2.nodes())[:50]:
            assert index.node2(index.dense2(node)) == node

    def test_dense_id_order_is_canonical_order(self):
        g = Graph.from_edges([(2, 10), (10, 3)])
        index = GraphPairIndex(g, g.copy())
        # repr-lexicographic: "10" < "2" < "3"
        assert index.csr1.node_ids == [10, 2, 3]

    def test_link_interning_roundtrip(self, index, pa_pair):
        links = dict(list(pa_pair.identity.items())[:40])
        left, right = index.intern_links(links)
        assert len(left) == len(links)
        assert index.export_links(left, right) == links

    def test_unknown_link_endpoint_raises(self, index):
        with pytest.raises(NodeNotFoundError):
            index.intern_links({"nope": "nada"})

    def test_has2_membership(self):
        g1 = Graph.from_edges([("a", "b")])
        g2 = Graph.from_edges([("b", "c")])
        index = GraphPairIndex(g1, g2)
        assert index.has2("b") and index.has2("c")
        assert not index.has2("a")
        assert not index.has2(object())

    def test_string_node_ids_roundtrip(self):
        g = Graph.from_edges([("b", "c"), ("a", "b"), ("a", "c")])
        index = GraphPairIndex(g, g.copy())
        assert index.csr1.node_ids == ["a", "b", "c"]
        assert index.csr2.node_ids == ["a", "b", "c"]
        links = {"a": "a", "c": "b"}
        left, right = index.intern_links(links)
        assert left.tolist() == [0, 2] and right.tolist() == [0, 1]
        assert index.export_links(left, right) == links


class TestArraysAgreeWithGraph:
    def test_degrees_match(self, index, pa_pair):
        for i, node in enumerate(index.csr1.node_ids):
            assert index.deg1[i] == pa_pair.g1.degree(node)

    def test_neighbors_match(self, index, pa_pair):
        for i, node in enumerate(index.csr1.node_ids[:80]):
            dense_nbrs = {
                index.csr1.node_ids[j]
                for j in index.csr1.neighbors(i).tolist()
            }
            assert dense_nbrs == pa_pair.g1.neighbors(node)

    def test_exponents_match_degrees(self, index):
        for deg, exp in zip(index.deg1.tolist(), index.exp1.tolist()):
            assert exp == deg.bit_length() - 1

    def test_stats_parity(self, index, pa_pair):
        """The CSR view and the Graph view agree on degree statistics."""
        assert sorted(index.deg1.tolist()) == sorted(
            degree_array(pa_pair.g1).tolist()
        )
        hist = degree_histogram(pa_pair.g1)
        values, counts = np.unique(index.deg1, return_counts=True)
        assert dict(zip(values.tolist(), counts.tolist())) == hist
        assert index.deg1.mean() == pytest.approx(average_degree(pa_pair.g1))

    def test_eligibility_masks(self, index):
        for floor in (1, 2, 4, 8):
            m1, m2 = index.eligibility(floor)
            assert np.array_equal(m1, index.deg1 >= floor)
            assert np.array_equal(m2, index.deg2 >= floor)

    def test_empty_graphs(self):
        index = GraphPairIndex(Graph(), Graph())
        assert index.n1 == 0 and index.n2 == 0
        left, right = index.intern_links({})
        assert len(left) == 0 and len(right) == 0
        assert index.export_links(left, right) == {}

    def test_repr(self, index):
        text = repr(index)
        assert "GraphPairIndex" in text and "n1=" in text
