"""dict↔csr backend equivalence: identical links for every matcher.

The array backend is a pure representation refactor — for any workload
and any registered matcher, ``backend="csr"`` must produce exactly the
same ``MatchingResult.links`` as ``backend="dict"``.  These tests pin
that down on randomized graphs (hypothesis-driven G(n, p) workloads plus
seeded preferential-attachment spot checks) for all seven registry
matchers and both tie policies.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MatcherConfig, TiePolicy
from repro.core.matcher import UserMatching
from repro.generators.erdos_renyi import gnp_graph
from repro.generators.preferential_attachment import (
    preferential_attachment_graph,
)
from repro.registry import get_matcher, matcher_names
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds

#: Registry-name -> extra config used in the all-matchers sweep (chosen
#: so every matcher actually links something at test scale).
MATCHER_CONFIGS: dict[str, dict] = {
    "user-matching": {"threshold": 2, "iterations": 2},
    "mapreduce-user-matching": {"threshold": 2, "iterations": 2},
    "common-neighbors": {},
    "reconciler": {"threshold": 2, "rounds": 2},
    "degree-sequence": {},
    "narayanan-shmatikov": {},
    "structural-features": {},
}


def workload(n=260, m=4, s=0.6, link_prob=0.1, seed=0):
    g = preferential_attachment_graph(n, m, seed=seed)
    pair = independent_copies(g, s, seed=seed + 1)
    seeds = sample_seeds(pair, link_prob, seed=seed + 2)
    return pair, seeds


@st.composite
def gnp_workload(draw):
    n = draw(st.integers(30, 120))
    p = draw(st.floats(0.03, 0.15))
    s = draw(st.floats(0.4, 0.9))
    link_prob = draw(st.floats(0.05, 0.3))
    seed = draw(st.integers(0, 10_000))
    g = gnp_graph(n, p, seed=seed)
    pair = independent_copies(g, s, seed=seed + 1)
    seeds = sample_seeds(pair, link_prob, seed=seed + 2)
    return pair, seeds


class TestRegistrySweep:
    def test_every_matcher_accepts_both_backends(self):
        """The config sweep covers the whole registry."""
        assert sorted(MATCHER_CONFIGS) == matcher_names()

    @pytest.mark.parametrize("name", sorted(MATCHER_CONFIGS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_links_identical_on_pa_workloads(self, name, seed):
        pair, seeds = workload(seed=seed * 100)
        config = MATCHER_CONFIGS[name]
        ref = get_matcher(name, backend="dict", **config).run(
            pair.g1, pair.g2, seeds
        )
        csr = get_matcher(name, backend="csr", **config).run(
            pair.g1, pair.g2, seeds
        )
        assert csr.links == ref.links
        assert csr.seeds == ref.seeds


class TestUserMatchingProperties:
    @given(gnp_workload(), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_links_identical_over_thresholds(self, wl, threshold):
        pair, seeds = wl
        ref = UserMatching(
            MatcherConfig(threshold=threshold, iterations=2, backend="dict")
        ).run(pair.g1, pair.g2, seeds)
        csr = UserMatching(
            MatcherConfig(
                threshold=threshold, iterations=2, backend="csr"
            )
        ).run(pair.g1, pair.g2, seeds)
        assert csr.links == ref.links

    @given(gnp_workload())
    @settings(max_examples=15, deadline=None)
    def test_links_identical_lowest_id_and_unbucketed(self, wl):
        pair, seeds = wl
        for kwargs in (
            {"tie_policy": TiePolicy.LOWEST_ID},
            {"use_degree_buckets": False},
            {"min_bucket_exponent": 0, "threshold": 1},
        ):
            ref = UserMatching(MatcherConfig(backend="dict", **kwargs)).run(
                pair.g1, pair.g2, seeds
            )
            csr = UserMatching(
                MatcherConfig(backend="csr", **kwargs)
            ).run(pair.g1, pair.g2, seeds)
            assert csr.links == ref.links, kwargs

    @given(gnp_workload())
    @settings(max_examples=10, deadline=None)
    def test_phase_accounting_consistent_on_csr(self, wl):
        """The csr backend keeps the MatchingResult invariants."""
        pair, seeds = wl
        result = UserMatching(
            MatcherConfig(iterations=2, backend="csr")
        ).run(pair.g1, pair.g2, seeds)
        assert (
            sum(p.links_added for p in result.phases)
            == result.num_new_links
        )
        values = list(result.links.values())
        assert len(set(values)) == len(values)
        for v1, v2 in seeds.items():
            assert result.links[v1] == v2


class TestBaselineProperties:
    @given(gnp_workload())
    @settings(max_examples=10, deadline=None)
    def test_baselines_identical_on_random_graphs(self, wl):
        pair, seeds = wl
        for name in (
            "common-neighbors",
            "degree-sequence",
            "narayanan-shmatikov",
            "structural-features",
        ):
            ref = get_matcher(name, backend="dict").run(
                pair.g1, pair.g2, seeds
            )
            csr = get_matcher(name, backend="csr").run(pair.g1, pair.g2, seeds)
            assert csr.links == ref.links, name

    @given(gnp_workload())
    @settings(max_examples=8, deadline=None)
    def test_reconciler_selectors_identical(self, wl):
        pair, seeds = wl
        for selector in ("mutual-best", "greedy", "gale-shapley"):
            ref = get_matcher(
                "reconciler", selector=selector, backend="dict"
            ).run(pair.g1, pair.g2, seeds)
            csr = get_matcher(
                "reconciler", selector=selector, backend="csr"
            ).run(pair.g1, pair.g2, seeds)
            assert csr.links == ref.links, selector


class TestStringIds:
    def test_mixed_hashable_node_ids(self):
        """Interning handles non-integer ids; links still identical."""
        pair, seeds = workload(n=150, seed=7)
        relabel1 = {v: f"u{v}" for v in pair.g1.nodes()}
        relabel2 = {v: (v, "right") for v in pair.g2.nodes()}
        from repro.graphs.graph import Graph

        h1 = Graph.from_edges(
            ((relabel1[u], relabel1[v]) for u, v in pair.g1.edges()),
            nodes=(relabel1[v] for v in pair.g1.nodes()),
        )
        h2 = Graph.from_edges(
            ((relabel2[u], relabel2[v]) for u, v in pair.g2.edges()),
            nodes=(relabel2[v] for v in pair.g2.nodes()),
        )
        str_seeds = {relabel1[v1]: relabel2[v2] for v1, v2 in seeds.items()}
        ref = UserMatching(
            MatcherConfig(threshold=2, backend="dict")
        ).run(h1, h2, str_seeds)
        csr = UserMatching(
            MatcherConfig(threshold=2, backend="csr")
        ).run(h1, h2, str_seeds)
        assert csr.links == ref.links
        assert len(csr.links) >= len(str_seeds)
