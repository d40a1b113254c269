"""csr↔native↔oracle equivalence: identical results everywhere.

``backend="native"`` swaps the csr kernels for compiled C, but the
contract is bit-exactness: for every registry matcher both backends
must produce exactly the result of its paper-literal reference (see
``oracle_helpers``; the MapReduce formulation for User-Matching, whole
``PhaseRecord``s included).  The forced-fallback classes additionally
pin the degradation contract — with the kill switch set (or no
toolchain at all), ``backend="native"`` still runs, warns exactly once
per process, and still matches the csr backend.

Everything here passes whether or not a C compiler exists: when the
toolchain is missing the native runs *are* fallback runs, and the wall
degenerates to re-checking csr against the oracle — still true, just
not new.
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
from repro.core.native import NativeFallbackWarning, _reset_native_cache
from repro.generators.erdos_renyi import gnp_graph
from repro.generators.preferential_attachment import (
    preferential_attachment_graph,
)
from repro.graphs.graph import Graph
from repro.registry import get_matcher, matcher_names
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds


def workload(n=220, m=4, s=0.6, link_prob=0.1, seed=0):
    g = preferential_attachment_graph(n, m, seed=seed)
    pair = independent_copies(g, s, seed=seed + 1)
    seeds = sample_seeds(pair, link_prob, seed=seed + 2)
    return pair, seeds


@st.composite
def gnp_workload(draw):
    n = draw(st.integers(30, 100))
    p = draw(st.floats(0.03, 0.15))
    s = draw(st.floats(0.4, 0.9))
    link_prob = draw(st.floats(0.05, 0.3))
    seed = draw(st.integers(0, 10_000))
    g = gnp_graph(n, p, seed=seed)
    pair = independent_copies(g, s, seed=seed + 1)
    seeds = sample_seeds(pair, link_prob, seed=seed + 2)
    return pair, seeds


class TestRegistrySweep:
    def test_sweep_covers_registry(self):
        assert sorted(MATCHER_CONFIGS) == matcher_names()

    @pytest.mark.parametrize("name", sorted(MATCHER_CONFIGS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_to_oracle(self, name, seed):
        pair, seeds = workload(seed=seed * 100)
        assert_registry_matches_oracle(
            name, pair.g1, pair.g2, seeds, **MATCHER_CONFIGS[name]
        )


class TestNativeProperties:
    @given(gnp_workload())
    @settings(max_examples=15, deadline=None)
    def test_user_matching_on_random_graphs(self, wl):
        pair, seeds = wl
        assert_matches_oracle(
            pair.g1, pair.g2, seeds, threshold=2, iterations=2
        )

    @given(gnp_workload())
    @settings(max_examples=8, deadline=None)
    def test_reconciler_selectors(self, wl):
        pair, seeds = wl
        for selector in ("mutual-best", "greedy", "gale-shapley"):
            assert_registry_matches_oracle(
                "reconciler", pair.g1, pair.g2, seeds, selector=selector
            )


class TestSweepEdgeCases:
    """Degenerate rounds of the one serial sweep, against the oracle."""

    def test_empty_bucket_rounds(self):
        """A high max_degree opens buckets with no eligible candidate."""
        pair, seeds = workload(n=80, seed=5)
        ref = assert_matches_oracle(
            pair.g1, pair.g2, seeds,
            threshold=2, iterations=1, max_degree=4096,
        )
        empty = [p for p in ref.phases if p.candidates == 0]
        assert empty and all(p.links_added == 0 for p in empty)

    def test_single_seed_grows(self):
        g = Graph.from_edges(
            [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (1, 4)]
        )
        # LOWEST_ID: with a single witness everywhere SKIP would tie
        # every candidate away and nothing could ever link.
        ref = assert_matches_oracle(
            g, g.copy(), {0: 0},
            threshold=1, min_bucket_exponent=0, iterations=2,
            tie_policy=TiePolicy.LOWEST_ID,
        )
        assert len(ref.links) > 1

    def test_no_seeds_at_all(self):
        pair, _ = workload(n=60, seed=9)
        ref = assert_matches_oracle(pair.g1, pair.g2, {})
        assert ref.links == {}
        assert all(p.witnesses_emitted == 0 for p in ref.phases)

    def test_two_seeds(self):
        pair, seeds = workload(n=100, seed=3)
        two = dict(list(seeds.items())[:2])
        ref = assert_matches_oracle(
            pair.g1, pair.g2, two, threshold=2, iterations=2
        )
        assert set(two.items()) <= set(ref.links.items())

    def test_isolated_nodes(self):
        g1 = Graph.from_edges([(0, 1)], nodes=[0, 1, 2, 3])
        g2 = Graph.from_edges([(0, 1)], nodes=[0, 1, 2, 3])
        ref = assert_matches_oracle(
            g1, g2, {0: 0}, threshold=1, min_bucket_exponent=0
        )
        assert ref.links == {0: 0, 1: 1}


class TestForcedFallback:
    """REPRO_NATIVE_DISABLE=1 must degrade, warn once, and stay exact."""

    @pytest.fixture(autouse=True)
    def killed_native(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        _reset_native_cache()
        yield
        _reset_native_cache()

    def test_run_warns_and_matches(self):
        pair, seeds = workload(seed=600)
        ref = UserMatching(
            MatcherConfig(threshold=2, iterations=2, backend="csr")
        ).run(pair.g1, pair.g2, seeds)
        with pytest.warns(NativeFallbackWarning) as caught:
            got = UserMatching(
                MatcherConfig(threshold=2, iterations=2, backend="native")
            ).run(pair.g1, pair.g2, seeds)
        assert got.links == ref.links
        fallbacks = [
            w for w in caught if issubclass(w.category, NativeFallbackWarning)
        ]
        assert len(fallbacks) == 1

    def test_reconciler_fallback_matches(self):
        pair, seeds = workload(seed=800)
        ref = get_matcher(
            "reconciler", threshold=2, rounds=2, backend="csr"
        ).run(pair.g1, pair.g2, seeds)
        with pytest.warns(NativeFallbackWarning):
            got = get_matcher(
                "reconciler", threshold=2, rounds=2, backend="native"
            ).run(pair.g1, pair.g2, seeds)
        assert got.links == ref.links
