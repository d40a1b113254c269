"""Oracle wall: both backends equal the paper-literal reference.

``backend="csr"`` and ``backend="native"`` are representation and speed
choices only.  For any workload and any registered matcher, each must
produce exactly the result of its reference (see ``oracle_helpers``):
for User-Matching that is the MapReduce formulation, compared on links,
seeds and every ``PhaseRecord`` field.  These tests pin that down on
randomized graphs (hypothesis-driven G(n, p) workloads over drawn
configurations, plus seeded preferential-attachment spot checks).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_helpers import (
    MATCHER_CONFIGS,
    assert_matches_oracle,
    assert_registry_matches_oracle,
)

from repro.core.config import MatcherConfig, TiePolicy
from repro.core.matcher import UserMatching
from repro.generators.erdos_renyi import gnp_graph
from repro.generators.preferential_attachment import (
    preferential_attachment_graph,
)
from repro.graphs.graph import Graph
from repro.registry import matcher_names
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds


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


@st.composite
def matcher_configs(draw):
    """Every sweep knob: ties, bucketing, D, pruning, 1–2 iterations."""
    min_exp = draw(st.integers(0, 1))
    return MatcherConfig(
        threshold=draw(st.integers(1, 4)),
        iterations=draw(st.integers(1, 2)),
        max_degree=draw(st.sampled_from([None, 2, 8, 4096])),
        use_degree_buckets=draw(st.booleans()),
        min_bucket_exponent=min_exp,
        tie_policy=draw(st.sampled_from(list(TiePolicy))),
        candidate_pruning=draw(st.sampled_from(["none", "community"])),
        pruning_frontier=draw(st.integers(0, 1)),
    )


class TestRegistrySweep:
    def test_sweep_covers_registry(self):
        assert sorted(MATCHER_CONFIGS) == matcher_names()

    @pytest.mark.parametrize("name", sorted(MATCHER_CONFIGS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_to_oracle_on_pa_workloads(self, name, seed):
        pair, seeds = workload(seed=seed * 100)
        ref = assert_registry_matches_oracle(
            name, pair.g1, pair.g2, seeds, **MATCHER_CONFIGS[name]
        )
        assert len(ref.links) > len(seeds)  # the matcher linked something


class TestUserMatchingProperties:
    @given(gnp_workload(), matcher_configs())
    @settings(max_examples=40, deadline=None)
    def test_identical_to_oracle_over_configs(self, wl, config):
        pair, seeds = wl
        assert_matches_oracle(pair.g1, pair.g2, seeds, config)

    @given(gnp_workload(), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_identical_to_oracle_over_thresholds(self, wl, threshold):
        pair, seeds = wl
        assert_matches_oracle(
            pair.g1, pair.g2, seeds, threshold=threshold, iterations=2
        )

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
            assert_registry_matches_oracle(name, pair.g1, pair.g2, seeds)

    @given(gnp_workload())
    @settings(max_examples=8, deadline=None)
    def test_reconciler_selectors_identical(self, wl):
        pair, seeds = wl
        for selector in ("mutual-best", "greedy", "gale-shapley"):
            assert_registry_matches_oracle(
                "reconciler", pair.g1, pair.g2, seeds, selector=selector
            )


class TestStringIds:
    def test_mixed_hashable_node_ids(self):
        """Interning handles non-integer ids; results still identical."""
        pair, seeds = workload(n=150, seed=7)
        relabel1 = {v: f"u{v}" for v in pair.g1.nodes()}
        relabel2 = {v: (v, "right") for v in pair.g2.nodes()}
        h1 = Graph.from_edges(
            ((relabel1[u], relabel1[v]) for u, v in pair.g1.edges()),
            nodes=(relabel1[v] for v in pair.g1.nodes()),
        )
        h2 = Graph.from_edges(
            ((relabel2[u], relabel2[v]) for u, v in pair.g2.edges()),
            nodes=(relabel2[v] for v in pair.g2.nodes()),
        )
        str_seeds = {relabel1[v1]: relabel2[v2] for v1, v2 in seeds.items()}
        for tie_policy in TiePolicy:
            ref = assert_matches_oracle(
                h1, h2, str_seeds, threshold=2, tie_policy=tie_policy
            )
            assert len(ref.links) > len(str_seeds)
