"""Oracle identity under candidate pruning, across the registry.

Pruning deliberately changes results versus ``candidate_pruning="none"``
— the invariant it must keep instead is that the *backends agree with
the reference*: the community assignment is computed once from the
union graph and the initial seeds, so csr, native and the paper-literal
reference (see ``oracle_helpers``) must land on exactly the same result
under the same pruning mode, for every registered matcher.
"""

import pytest
from oracle_helpers import MATCHER_CONFIGS, assert_registry_matches_oracle

from repro.core.config import MatcherConfig
from repro.core.matcher import UserMatching
from repro.generators.preferential_attachment import (
    preferential_attachment_graph,
)
from repro.registry import matcher_names
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds

def workload(n=220, m=4, s=0.6, link_prob=0.1, seed=0):
    g = preferential_attachment_graph(n, m, seed=seed)
    pair = independent_copies(g, s, seed=seed + 1)
    seeds = sample_seeds(pair, link_prob, seed=seed + 2)
    return pair, seeds


class TestPrunedRegistryWall:
    def test_wall_covers_the_whole_registry(self):
        assert sorted(MATCHER_CONFIGS) == matcher_names()

    @pytest.mark.parametrize("name", sorted(MATCHER_CONFIGS))
    @pytest.mark.parametrize("frontier", [0, 1])
    def test_identical_to_oracle_under_pruning(self, name, frontier):
        pair, seeds = workload()
        assert_registry_matches_oracle(
            name,
            pair.g1,
            pair.g2,
            seeds,
            candidate_pruning="community",
            pruning_frontier=frontier,
            **MATCHER_CONFIGS[name],
        )


class TestPruningSemantics:
    @pytest.mark.parametrize("frontier", [0, 1, 2])
    def test_frontier_monotone_in_candidates(self, frontier):
        """A wider ring can only re-admit pairs, never drop them."""
        pair, seeds = workload(seed=40)
        def candidates(**overrides):
            result = UserMatching(
                MatcherConfig(
                    threshold=2,
                    iterations=1,
                    backend="csr",
                    **overrides,
                )
            ).run(pair.g1, pair.g2, seeds)
            return sum(p.candidates for p in result.phases)

        pruned = candidates(
            candidate_pruning="community", pruning_frontier=frontier
        )
        assert pruned <= candidates()
        if frontier > 0:
            narrower = candidates(
                candidate_pruning="community",
                pruning_frontier=frontier - 1,
            )
            assert narrower <= pruned

    def test_pruned_links_subset_semantics_documented(self):
        """Pruning may change results; what it must never do is link a
        pair it was asked to exclude while both endpoints are assigned
        to disallowed communities."""
        from repro.graphs.communities import assignment_for
        from repro.graphs.pair_index import GraphPairIndex

        pair, seeds = workload(seed=77)
        result = UserMatching(
            MatcherConfig(
                threshold=2,
                iterations=2,
                backend="csr",
                candidate_pruning="community",
            )
        ).run(pair.g1, pair.g2, seeds)
        index = GraphPairIndex(pair.g1, pair.g2)
        assignment = assignment_for(
            pair.g1, pair.g2, seeds, index=index
        )
        cmap1, cmap2 = assignment.community_maps(index)
        for v1, v2 in result.links.items():
            if v1 in seeds:
                continue  # seeds are given, not generated
            assert assignment.allowed_communities(
                cmap1[v1], cmap2[v2]
            ), (v1, v2)
