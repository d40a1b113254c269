"""Unit tests for match diagnostics."""

from repro.core.diagnostics import explain_pair, margin, rank_candidates
from repro.graphs.graph import Graph


def diamond_pair():
    """Two identical diamonds: 0-1, 0-2, 1-3, 2-3 plus pendant 3-4."""
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]
    return Graph.from_edges(edges), Graph.from_edges(edges)


class TestExplainPair:
    def test_witnesses_listed(self):
        g1, g2 = diamond_pair()
        links = {1: 1, 2: 2}
        exp = explain_pair(g1, g2, links, 3, 3)
        assert exp.score == 2
        assert (1, 1) in exp.witnesses
        assert (2, 2) in exp.witnesses

    def test_score_counts_every_linked_common_neighbor(self):
        g1, g2 = diamond_pair()
        links = {0: 0}
        # u1=0 neighbors 1 in g1 and u2=0 neighbors 1 and 2 in g2.
        assert explain_pair(g1, g2, links, 1, 1).score == 1
        assert explain_pair(g1, g2, links, 1, 2).score == 1
        assert explain_pair(g1, g2, links, 4, 4).score == 0

    def test_directionality(self):
        g1 = Graph.from_edges([(0, 1)])
        g2 = Graph.from_edges([(0, 1), (1, 2)])
        links = {0: 0}
        assert explain_pair(g1, g2, links, 1, 1).score == 1
        assert explain_pair(g1, g2, links, 1, 2).score == 0

    def test_no_witnesses(self):
        g1, g2 = diamond_pair()
        exp = explain_pair(g1, g2, {}, 3, 3)
        assert exp.score == 0
        assert exp.witnesses == ()

    def test_str_rendering(self):
        g1, g2 = diamond_pair()
        exp = explain_pair(g1, g2, {1: 1}, 3, 3)
        text = str(exp)
        assert "score=1" in text
        assert "3" in text


class TestRankCandidates:
    def test_true_match_ranks_first(self):
        g1, g2 = diamond_pair()
        # With only {1, 2} linked, nodes 0 and 3 are witness-symmetric
        # (both adjacent to 1 and 2) — adding the pendant 4 breaks the
        # symmetry in favor of the true match.
        links = {1: 1, 2: 2, 4: 4}
        ranked = rank_candidates(g1, g2, links, 3)
        assert ranked[0].right == 3
        assert ranked[0].score == 3

    def test_excludes_linked_right_nodes(self):
        g1, g2 = diamond_pair()
        links = {1: 1, 2: 2, 0: 0}
        ranked = rank_candidates(g1, g2, links, 3)
        assert all(exp.right not in (0, 1, 2) for exp in ranked)

    def test_limit(self, pa_pair, pa_seeds):
        hub = max(pa_pair.g1.nodes(), key=pa_pair.g1.degree)
        ranked = rank_candidates(
            pa_pair.g1, pa_pair.g2, pa_seeds, hub, limit=3
        )
        assert len(ranked) <= 3

    def test_sorted_by_score(self, pa_pair, pa_seeds):
        hub = max(pa_pair.g1.nodes(), key=pa_pair.g1.degree)
        ranked = rank_candidates(
            pa_pair.g1, pa_pair.g2, pa_seeds, hub, limit=10
        )
        scores = [e.score for e in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_no_links_no_candidates(self):
        g1, g2 = diamond_pair()
        assert rank_candidates(g1, g2, {}, 3) == []


class TestMargin:
    def test_unambiguous_match_has_margin(self):
        g1, g2 = diamond_pair()
        links = {1: 1, 2: 2, 4: 4}
        assert margin(g1, g2, links, 3) >= 1

    def test_symmetric_candidates_zero_margin(self):
        # Nodes 0 and 3 are witness-symmetric under links {1, 2}: the
        # margin is zero — exactly the ambiguity the SKIP policy refuses.
        g1, g2 = diamond_pair()
        links = {1: 1, 2: 2}
        assert margin(g1, g2, links, 3) == 0

    def test_no_candidates_zero(self):
        g1, g2 = diamond_pair()
        assert margin(g1, g2, {}, 3) == 0

    def test_single_candidate_margin_is_score(self):
        g1 = Graph.from_edges([(0, 1)])
        g2 = Graph.from_edges([(0, 1)])
        links = {0: 0}
        assert margin(g1, g2, links, 1) == 1
