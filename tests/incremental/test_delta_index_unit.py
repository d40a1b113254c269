"""Unit tests for :class:`repro.incremental.delta_index.DeltaIndex`."""

import numpy as np
import pytest

from repro.generators.erdos_renyi import gnp_graph
from repro.graphs.graph import Graph
from repro.graphs.pair_index import GraphPairIndex
from repro.incremental.delta import GraphDelta
from repro.incremental.delta_index import DeltaIndex


def small_pair():
    g1 = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    g2 = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    return g1, g2


def assert_matches_fresh(index: DeltaIndex):
    """The CSR must equal a from-scratch canonical interning."""
    fresh = GraphPairIndex(index.g1, index.g2)
    # Same node universe (possibly different dense order after appends).
    assert {index.node1(d) for d in range(index.n1)} == set(
        fresh.csr1.node_ids
    )
    assert {index.node2(d) for d in range(index.n2)} == set(
        fresh.csr2.node_ids
    )
    for side, nbrs, graph in (
        (1, index.csr1.neighbors, index.g1),
        (2, index.csr2.neighbors, index.g2),
    ):
        node_of = index.node1 if side == 1 else index.node2
        n = index.n1 if side == 1 else index.n2
        dense_of = index.dense1 if side == 1 else index.dense2
        for d in range(n):
            expected = {dense_of(v) for v in graph.neighbors(node_of(d))}
            assert set(nbrs(d).tolist()) == expected
    # Degrees and canonical ranks stay consistent.
    for d in range(index.n1):
        assert index.deg1[d] == index.g1.degree(index.node1(d))
    rank_order = sorted(range(index.n1), key=lambda d: index.rank1[d])
    from repro.core.ordering import node_sort_key

    assert [index.node1(d) for d in rank_order] == sorted(
        (index.node1(d) for d in range(index.n1)), key=node_sort_key
    )


class TestDeltaIndex:
    def test_fresh_index_is_compact_and_canonical(self):
        g1, g2 = small_pair()
        index = DeltaIndex(g1, g2)
        # Fresh interning is canonical: ranks are the identity.
        assert np.array_equal(index.rank1, np.arange(index.n1))
        fresh = GraphPairIndex(g1, g2)
        assert index.csr1.node_ids == fresh.csr1.node_ids
        assert np.array_equal(index.csr1.indptr, fresh.csr1.indptr)
        assert np.array_equal(index.csr1.indices, fresh.csr1.indices)

    def test_uint32_indices(self):
        g1, g2 = small_pair()
        index = DeltaIndex(g1, g2)
        assert index.csr1.indices.dtype == np.uint32
        index.apply_delta(GraphDelta.build(added_edges1=[(1, 3)]))
        assert index.csr1.indices.dtype == np.uint32

    def test_apply_add_and_remove(self):
        g1, g2 = small_pair()
        index = DeltaIndex(g1, g2)
        applied = index.apply_delta(
            GraphDelta.build(
                added_edges1=[(1, 3)], removed_edges2=[(2, 3)]
            )
        )
        assert set(applied.changed1.tolist()) == {
            index.dense1(1),
            index.dense1(3),
        }
        assert_matches_fresh(index)

    def test_snapshot_preserves_old_neighbors(self):
        g1, g2 = small_pair()
        index = DeltaIndex(g1, g2)
        d1 = index.dense1(1)
        before = set(index.csr1.neighbors(d1).tolist())
        applied = index.apply_delta(GraphDelta.build(added_edges1=[(1, 3)]))
        assert set(applied.old_csr1.neighbors(d1).tolist()) == before
        assert set(index.csr1.neighbors(d1).tolist()) == before | {
            index.dense1(3)
        }

    def test_new_nodes_appended_not_reinterned(self):
        g1, g2 = small_pair()
        index = DeltaIndex(g1, g2)
        old_ids = [index.node1(d) for d in range(index.n1)]
        index.apply_delta(
            GraphDelta.build(added_edges1=[("zz", 0), ("aa", 1)])
        )
        # Existing dense ids are untouched; new nodes go at the end.
        assert [index.node1(d) for d in range(len(old_ids))] == old_ids
        appended = {index.node1(d) for d in range(len(old_ids), index.n1)}
        assert appended == {"aa", "zz"}
        # Ranks still reflect the canonical (sorted) order.
        assert_matches_fresh(index)

    def test_compact_preserves_dense_ids_and_content(self):
        g1, g2 = small_pair()
        index = DeltaIndex(g1, g2)
        ids_before = [index.node1(d) for d in range(index.n1)]
        index.apply_delta(
            GraphDelta.build(
                added_edges1=[(1, 3), ("n", 2)],
                removed_edges1=[(0, 2)],
                added_edges2=[(0, 2)],
            )
        )
        assert [index.node1(d) for d in range(len(ids_before))] == ids_before
        assert index.node1(len(ids_before)) == "n"
        assert_matches_fresh(index)

    def test_add_then_remove_same_edge_cancels(self):
        g1, g2 = small_pair()
        index = DeltaIndex(g1, g2)
        index.apply_delta(GraphDelta.build(added_edges1=[(1, 3)]))
        index.apply_delta(GraphDelta.build(removed_edges1=[(1, 3)]))
        assert_matches_fresh(index)

    def test_random_delta_sequence_stays_consistent(self):
        import random

        rng = random.Random(9)
        g1 = gnp_graph(30, 0.12, seed=1)
        g2 = gnp_graph(30, 0.12, seed=2)
        index = DeltaIndex(g1, g2)
        for _step in range(6):
            candidates = [
                (u, v)
                for u in range(30)
                for v in range(u + 1, 30)
                if not g1.has_edge(u, v)
            ]
            add = rng.sample(candidates, k=min(4, len(candidates)))
            present = sorted(g1.edges())
            rm = [present[rng.randrange(len(present))]]
            index.apply_delta(
                GraphDelta.build(
                    added_edges1=add, removed_edges1=rm
                )
            )
        assert_matches_fresh(index)
