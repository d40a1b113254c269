"""Seeded grow-only label propagation + the allowed-pair relation.

The partitioner behind ``candidate_pruning="community"``: deterministic
Voronoi-like cells around the glued seed slots, a quotient-graph
frontier ring, and the hard invariant that unassigned nodes (``-1``)
are never pruned.
"""

import numpy as np
import pytest

from repro.core.config import MatcherConfig
from repro.core.matcher import UserMatching
from repro.generators.affiliation import affiliation_graph
from repro.graphs.communities import (
    assign_communities,
    assignment_for,
    union_label_propagation,
)
from repro.graphs.graph import Graph
from repro.graphs.pair_index import GraphPairIndex
from repro.sampling.community import correlated_community_copies
from repro.seeds.generators import sample_seeds


def clique_edges(nodes):
    return [
        (a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]
    ]


@pytest.fixture
def two_cliques():
    """Two 6-cliques joined by one bridge, identical copies, one seed each.

    The canonical pruning workload: the partition should recover the
    cliques, and the bridge makes them adjacent in the quotient graph.
    """
    a = list(range(6))
    b = list(range(10, 16))
    edges = clique_edges(a) + clique_edges(b) + [(5, 10)]
    g = Graph.from_edges(edges)
    index = GraphPairIndex(g, g)
    seeds = {0: 0, 15: 15}
    seed_l, seed_r = index.intern_links(seeds)
    return g, index, seeds, seed_l, seed_r


class TestUnionPropagation:
    def test_seeds_keep_their_own_labels(self, two_cliques):
        _g, index, _seeds, seed_l, seed_r = two_cliques
        labels, _u1, _u2, _edges = union_label_propagation(
            index, seed_l, seed_r
        )
        assert np.array_equal(labels[seed_l], seed_l)

    def test_every_clique_node_reached(self, two_cliques):
        _g, index, _seeds, seed_l, seed_r = two_cliques
        labels, union1, _u2, _edges = union_label_propagation(
            index, seed_l, seed_r
        )
        assert (labels[union1] >= 0).all()

    def test_grow_only_no_giant_community(self, two_cliques):
        """Re-voting LPA collapses this graph into one label; grow-only
        must keep both seed cells alive."""
        _g, index, _seeds, seed_l, seed_r = two_cliques
        labels, union1, _u2, _edges = union_label_propagation(
            index, seed_l, seed_r
        )
        assert len(np.unique(labels[union1])) == 2

    def test_no_seeds_leaves_everything_unassigned(self, two_cliques):
        _g, index, *_ = two_cliques
        empty = np.empty(0, dtype=np.int64)
        labels, union1, union2, _edges = union_label_propagation(
            index, empty, empty
        )
        assert (labels[union1] == -1).all()
        assert (labels[union2] == -1).all()

    def test_deterministic_across_repeats(self, two_cliques):
        _g, index, _seeds, seed_l, seed_r = two_cliques
        first = union_label_propagation(index, seed_l, seed_r)
        second = union_label_propagation(index, seed_l, seed_r)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestAssignment:
    def test_cliques_become_separate_communities(self, two_cliques):
        _g, index, _seeds, seed_l, seed_r = two_cliques
        assignment = assign_communities(index, seed_l, seed_r)
        cmap1, cmap2 = assignment.community_maps(index)
        clique_a = {cmap1[n] for n in range(6)}
        clique_b = {cmap1[n] for n in range(10, 16)}
        assert len(clique_a) == 1 and len(clique_b) == 1
        assert clique_a != clique_b
        # Identical copies: both sides land in the same cell per node.
        assert cmap1 == cmap2
        assert assignment.num_communities == 2

    def test_frontier_zero_blocks_cross_clique_pairs(self, two_cliques):
        _g, index, _seeds, seed_l, seed_r = two_cliques
        assignment = assign_communities(
            index, seed_l, seed_r, frontier=0
        )
        cmap1, cmap2 = assignment.community_maps(index)
        assert assignment.allowed_communities(cmap1[1], cmap2[2])
        assert not assignment.allowed_communities(cmap1[1], cmap2[11])

    def test_frontier_one_allows_adjacent_communities(self, two_cliques):
        """The bridge makes the cliques quotient-adjacent: ring 1
        re-admits cross-clique pairs."""
        _g, index, _seeds, seed_l, seed_r = two_cliques
        assignment = assign_communities(
            index, seed_l, seed_r, frontier=1
        )
        cmap1, cmap2 = assignment.community_maps(index)
        assert assignment.allowed_communities(cmap1[1], cmap2[11])

    @staticmethod
    def random_assignment(frontier, trial):
        """A random pair with an unseeded component on each side."""
        rng = np.random.default_rng(trial)
        n = 60
        edges = {
            (int(a), int(b))
            for a, b in rng.integers(0, n, size=(n, 2))
            if a != b
        }
        g1 = Graph.from_edges(sorted(edges) + [(100, 101), (101, 102)])
        kept = [e for e in sorted(edges) if rng.random() < 0.7]
        g2 = Graph.from_edges(kept + [(200, 201)])
        for v in range(n):
            g1.add_node(v)
            g2.add_node(v)
        picks = rng.choice(n, size=10, replace=False).tolist()
        seeds = {v: v for v in picks}
        index = GraphPairIndex(g1, g2)
        seed_l, seed_r = index.intern_links(seeds)
        return index, assign_communities(
            index, seed_l, seed_r, frontier=frontier
        )

    @pytest.mark.parametrize("trial", range(4))
    @pytest.mark.parametrize("frontier", [0, 1, 2])
    def test_mask_agrees_with_scalar_path(self, frontier, trial):
        """allowed_mask (csr backends) and allowed_communities (dict
        backend, Reconciler, MapReduce) must implement the same
        relation — that agreement is what keeps the backends
        link-identical under pruning."""
        index, assignment = self.random_assignment(frontier, trial)
        c1, c2 = assignment.comm1, assignment.comm2
        assert (c1 < 0).any() and (c2 < 0).any()
        left = np.arange(index.n1, dtype=np.int64).repeat(index.n2)
        right = np.tile(np.arange(index.n2, dtype=np.int64), index.n1)
        mask = assignment.allowed_mask(left, right)
        scalar = [
            assignment.allowed_communities(int(c1[v1]), int(c2[v2]))
            for v1, v2 in zip(left.tolist(), right.tolist())
        ]
        assert mask.tolist() == scalar
        assert not mask.all()
        off = (c1[left] != c2[right]) & (c1[left] >= 0) & (c2[right] >= 0)
        if frontier:
            assert mask[off].any()
        else:
            assert not mask[off].any()

    def test_unassigned_nodes_never_pruned(self):
        """Nodes no seed reaches keep -1 and pass every filter."""
        g = Graph.from_edges(clique_edges(list(range(4))))
        g.add_node(99)  # isolated: no label can ever reach it
        index = GraphPairIndex(g, g)
        seed_l, seed_r = index.intern_links({0: 0})
        assignment = assign_communities(index, seed_l, seed_r)
        cmap1, cmap2 = assignment.community_maps(index)
        assert cmap1[99] == -1
        assert assignment.allowed_communities(cmap1[99], cmap2[1])
        assert assignment.allowed_communities(cmap1[1], cmap2[99])
        iso = index.dense1(99)
        mask = assignment.allowed_mask(
            np.array([iso, iso]), np.array([index.dense2(1), iso])
        )
        assert mask.all()

    def test_empty_seed_assignment_allows_everything(self, two_cliques):
        _g, index, *_ = two_cliques
        empty = np.empty(0, dtype=np.int64)
        assignment = assign_communities(index, empty, empty)
        assert assignment.num_communities == 0
        left = np.arange(index.n1, dtype=np.int64)
        right = np.arange(index.n1, dtype=np.int64)
        assert assignment.allowed_mask(left, right).all()

    def test_assignment_for_matches_assign_communities(self, two_cliques):
        g, index, seeds, seed_l, seed_r = two_cliques
        direct = assign_communities(index, seed_l, seed_r)
        wrapped = assignment_for(g, g, seeds)
        assert np.array_equal(direct.comm1, wrapped.comm1)
        assert np.array_equal(direct.comm2, wrapped.comm2)
        assert np.array_equal(
            direct.allowed_keys, wrapped.allowed_keys
        )

    def test_insertion_order_invariance(self):
        """Canonical interning: the partition ignores edge order."""
        edges = clique_edges(list(range(5))) + [(4, 7), (7, 8), (7, 9)]
        g_fwd = Graph.from_edges(edges)
        g_rev = Graph.from_edges(list(reversed(edges)))
        seeds = {0: 0, 8: 8}
        maps_fwd = assignment_for(g_fwd, g_fwd, seeds).community_maps(
            GraphPairIndex(g_fwd, g_fwd)
        )
        maps_rev = assignment_for(g_rev, g_rev, seeds).community_maps(
            GraphPairIndex(g_rev, g_rev)
        )
        assert maps_fwd == maps_rev


class TestPruningEffect:
    def test_pruning_shrinks_candidates_on_community_workload(self):
        """On an affiliation workload the filter must actually bite:
        fewer candidate pairs scored, cost reported — not hidden."""
        network = affiliation_graph(300, 30, seed=5)
        pair = correlated_community_copies(
            network, keep_prob=0.8, seed=6
        )
        seeds = sample_seeds(pair, 0.08, seed=7)
        def run(mode):
            return UserMatching(
                MatcherConfig(
                    threshold=2,
                    iterations=2,
                    backend="csr",
                    candidate_pruning=mode,
                )
            ).run(pair.g1, pair.g2, seeds)

        unpruned = run("none")
        pruned = run("community")
        total = lambda r: sum(p.candidates for p in r.phases)  # noqa: E731
        assert 0 < total(pruned) < total(unpruned)
        assert pruned.links  # still links something

    def test_true_pairs_overwhelmingly_same_community(self):
        """The design claim: a true match's two copies see the same
        seed landscape, so they share a community far more often than
        random pairs do."""
        network = affiliation_graph(300, 30, seed=11)
        pair = correlated_community_copies(
            network, keep_prob=0.8, seed=12
        )
        seeds = sample_seeds(pair, 0.08, seed=13)
        index = GraphPairIndex(pair.g1, pair.g2)
        assignment = assignment_for(
            pair.g1, pair.g2, seeds, index=index
        )
        cmap1, cmap2 = assignment.community_maps(index)
        same = checked = 0
        for v1, v2 in pair.identity.items():
            c1, c2 = cmap1.get(v1), cmap2.get(v2)
            if c1 is None or c2 is None or c1 < 0 or c2 < 0:
                continue
            checked += 1
            same += c1 == c2
        assert checked > 50
        assert same / checked > 0.6
