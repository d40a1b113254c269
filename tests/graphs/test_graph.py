"""Unit tests for the core Graph substrate."""

import pytest

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graphs.graph import Graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert list(g.nodes()) == []
        assert list(g.edges()) == []

    def test_from_edges(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_from_edges_with_isolated_nodes(self):
        g = Graph.from_edges([(0, 1)], nodes=[5, 6])
        assert g.has_node(5)
        assert g.has_node(6)
        assert g.degree(5) == 0
        assert g.num_nodes == 4

    def test_from_edges_deduplicates(self):
        g = Graph.from_edges([(0, 1), (0, 1), (1, 0)])
        assert g.num_edges == 1

    def test_copy_is_independent(self):
        g = Graph.from_edges([(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert g.num_edges == 1
        assert h.num_edges == 2
        assert not g.has_node(2)

    def test_copy_equality(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert g.copy() == g


class TestMutation:
    def test_add_node_idempotent(self):
        g = Graph()
        g.add_node(1)
        g.add_node(1)
        assert g.num_nodes == 1

    def test_add_edge_creates_endpoints(self):
        g = Graph()
        assert g.add_edge(0, 1) is True
        assert g.has_node(0)
        assert g.has_node(1)

    def test_add_edge_duplicate_returns_false(self):
        g = Graph()
        g.add_edge(0, 1)
        assert g.add_edge(0, 1) is False
        assert g.add_edge(1, 0) is False
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_edge(3, 3)

    def test_add_edges_counts_new(self):
        g = Graph()
        assert g.add_edges([(0, 1), (1, 2), (0, 1)]) == 2

    def test_remove_edge(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.num_edges == 1
        assert g.has_node(0)  # endpoints stay

    def test_remove_missing_edge_raises(self):
        g = Graph.from_edges([(0, 1)])
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(0, 2)

    def test_remove_node_removes_incident_edges(self, star):
        star.remove_node(0)
        assert star.num_edges == 0
        assert star.num_nodes == 5

    def test_remove_missing_node_raises(self):
        g = Graph()
        with pytest.raises(NodeNotFoundError):
            g.remove_node(9)


class TestQueries:
    def test_neighbors(self, triangle):
        assert triangle.neighbors(0) == {1, 2}

    def test_neighbors_missing_raises(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.neighbors(99)

    def test_degree(self, star):
        assert star.degree(0) == 5
        assert star.degree(1) == 1

    def test_degrees_map(self, path4):
        assert path4.degrees() == {0: 1, 1: 2, 2: 2, 3: 1}

    def test_max_degree(self, star):
        assert star.max_degree() == 5

    def test_max_degree_empty(self):
        assert Graph().max_degree() == 0

    def test_common_neighbors(self):
        g = Graph.from_edges([(0, 2), (1, 2), (0, 3), (1, 3), (0, 4)])
        assert g.common_neighbors(0, 1) == {2, 3}

    def test_common_neighbors_none(self, path4):
        assert path4.common_neighbors(0, 1) == set()

    def test_has_edge_missing_node(self):
        g = Graph.from_edges([(0, 1)])
        assert not g.has_edge(7, 8)


class TestIteration:
    def test_edges_reported_once(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        canonical = {frozenset(e) for e in edges}
        assert len(canonical) == 3

    def test_edges_start_at_first_inserted_endpoint(self):
        # Not ``u <= v``: the served stream sorts these tuples as given.
        assert list(Graph.from_edges([(5, 1)]).edges()) == [(5, 1)]
        g = Graph.from_edges([(3, 9), (9, 2)], nodes=[9])
        assert sorted(g.edges()) == [(9, 2), (9, 3)]

    def test_edge_count_matches_iteration(self, small_pa):
        assert sum(1 for _ in small_pa.edges()) == small_pa.num_edges

    def test_handshake_lemma(self, small_pa):
        total_degree = sum(small_pa.degree(n) for n in small_pa.nodes())
        assert total_degree == 2 * small_pa.num_edges

    def test_contains_and_len(self, triangle):
        assert 0 in triangle
        assert 99 not in triangle
        assert len(triangle) == 3

    def test_iter_yields_nodes(self, triangle):
        assert sorted(triangle) == [0, 1, 2]

    def test_repr(self, triangle):
        assert "num_nodes=3" in repr(triangle)
        assert "num_edges=3" in repr(triangle)


class TestNodeIdFlexibility:
    def test_string_node_ids(self):
        g = Graph.from_edges([("a", "b"), ("b", "c")])
        assert g.degree("b") == 2

    def test_tuple_node_ids(self):
        g = Graph()
        g.add_edge(("sybil", 1), 1)
        assert g.has_edge(1, ("sybil", 1))

    def test_mixed_node_ids(self):
        g = Graph.from_edges([(1, "one")])
        assert g.has_edge("one", 1)


class TestEquality:
    def test_equal_graphs(self):
        a = Graph.from_edges([(0, 1), (1, 2)])
        b = Graph.from_edges([(1, 2), (0, 1)])
        assert a == b

    def test_unequal_graphs(self):
        a = Graph.from_edges([(0, 1)])
        b = Graph.from_edges([(0, 2)])
        assert a != b

    def test_not_equal_to_other_types(self):
        assert Graph() != 42
