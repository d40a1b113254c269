"""dict↔csr↔native three-way equivalence: identical links everywhere.

``backend="native"`` swaps the csr kernels for compiled C, but the
contract is bit-exactness: for every registry matcher the native
backend must produce exactly the same
``MatchingResult.links`` as both ``backend="dict"`` and
``backend="csr"``.  The forced-fallback classes additionally pin the
degradation contract — with the kill switch set (or no toolchain at
all), ``backend="native"`` still runs, warns exactly once per process,
and still matches the other two backends link-for-link.

Everything here passes whether or not a C compiler exists: when the
toolchain is missing the native runs *are* fallback runs, and the wall
degenerates to re-checking dict↔csr — still true, just not new.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MatcherConfig, TiePolicy
from repro.core.matcher import UserMatching
from repro.core.native import (
    NativeFallbackWarning,
    _reset_native_cache,
    native_available,
)
from repro.generators.erdos_renyi import gnp_graph
from repro.generators.preferential_attachment import (
    preferential_attachment_graph,
)
from repro.graphs.graph import Graph
from repro.registry import get_matcher, matcher_names
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds

#: Registry-name -> extra config (same sweep as the dict↔csr wall).
MATCHER_CONFIGS: dict[str, dict] = {
    "user-matching": {"threshold": 2, "iterations": 2},
    "mapreduce-user-matching": {"threshold": 2, "iterations": 2},
    "common-neighbors": {},
    "reconciler": {"threshold": 2, "rounds": 2},
    "degree-sequence": {},
    "narayanan-shmatikov": {},
    "structural-features": {},
}

NATIVE = native_available()


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


def run_backend(name, backend, seeds, pair, **config):
    """One matcher run with NativeFallbackWarning escalated to error.

    A surprise fallback inside a test that believes it is exercising the
    compiled path would silently weaken the wall — so when the toolchain
    exists, any fallback warning fails the test.
    """
    with warnings.catch_warnings():
        if NATIVE and backend == "native":
            warnings.simplefilter("error", NativeFallbackWarning)
        elif backend == "native":
            warnings.simplefilter("ignore", NativeFallbackWarning)
        matcher = get_matcher(name, backend=backend, **config)
        return matcher.run(pair.g1, pair.g2, seeds)


class TestThreeWayRegistrySweep:
    def test_sweep_covers_registry(self):
        assert sorted(MATCHER_CONFIGS) == matcher_names()

    @pytest.mark.parametrize("name", sorted(MATCHER_CONFIGS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_links_identical_three_ways(self, name, seed):
        pair, seeds = workload(seed=seed * 100)
        config = MATCHER_CONFIGS[name]
        ref = run_backend(name, "dict", seeds, pair, **config)
        csr = run_backend(name, "csr", seeds, pair, **config)
        nat = run_backend(name, "native", seeds, pair, **config)
        assert csr.links == ref.links
        assert nat.links == ref.links
        assert nat.seeds == ref.seeds


class TestNativeProperties:
    @given(gnp_workload())
    @settings(max_examples=15, deadline=None)
    def test_user_matching_three_ways_on_random_graphs(self, wl):
        pair, seeds = wl
        ref = UserMatching(
            MatcherConfig(threshold=2, iterations=2, backend="dict")
        ).run(pair.g1, pair.g2, seeds)
        for backend in ("csr", "native"):
            got = UserMatching(
                MatcherConfig(threshold=2, iterations=2, backend=backend)
            ).run(pair.g1, pair.g2, seeds)
            assert got.links == ref.links, backend

    @given(gnp_workload())
    @settings(max_examples=8, deadline=None)
    def test_reconciler_selectors_three_ways(self, wl):
        pair, seeds = wl
        for selector in ("mutual-best", "greedy", "gale-shapley"):
            ref = get_matcher(
                "reconciler", selector=selector, backend="dict"
            ).run(pair.g1, pair.g2, seeds)
            nat = get_matcher(
                "reconciler", selector=selector, backend="native"
            ).run(pair.g1, pair.g2, seeds)
            assert nat.links == ref.links, selector


class TestSweepEdgeCases:
    """Degenerate rounds of the one serial sweep, on every backend."""

    @staticmethod
    def three_ways(g1, g2, seeds, **config):
        runs = {
            backend: run_backend("user-matching", backend, seeds,
                                 _Pair(g1, g2), **config)
            for backend in ("dict", "csr", "native")
        }
        ref = runs["dict"]
        for backend, got in runs.items():
            assert got.links == ref.links, backend
            assert [shape(p) for p in got.phases] == [
                shape(p) for p in ref.phases
            ], backend
        # The array backends also agree on the witness work; the dict
        # backend's incremental records account for it differently.
        assert runs["native"].phases == runs["csr"].phases
        return ref

    def test_empty_bucket_rounds(self):
        """A high max_degree opens buckets with no eligible candidate."""
        pair, seeds = workload(n=80, seed=5)
        ref = self.three_ways(
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
        ref = self.three_ways(
            g, g.copy(), {0: 0},
            threshold=1, min_bucket_exponent=0, iterations=2,
            tie_policy=TiePolicy.LOWEST_ID,
        )
        assert len(ref.links) > 1

    def test_no_seeds_at_all(self):
        pair, _ = workload(n=60, seed=9)
        ref = self.three_ways(pair.g1, pair.g2, {})
        assert ref.links == {}
        assert all(p.witnesses_emitted == 0 for p in ref.phases)

    def test_two_seeds(self):
        pair, seeds = workload(n=100, seed=3)
        two = dict(list(seeds.items())[:2])
        ref = self.three_ways(
            pair.g1, pair.g2, two, threshold=2, iterations=2
        )
        assert set(two.items()) <= set(ref.links.items())

    def test_isolated_nodes(self):
        g1 = Graph.from_edges([(0, 1)], nodes=[0, 1, 2, 3])
        g2 = Graph.from_edges([(0, 1)], nodes=[0, 1, 2, 3])
        ref = self.three_ways(
            g1, g2, {0: 0}, threshold=1, min_bucket_exponent=0
        )
        assert ref.links == {0: 0, 1: 1}


def shape(phase):
    """A ``PhaseRecord`` without its witness-work count."""
    return (phase.iteration, phase.bucket_exponent, phase.min_degree,
            phase.candidates, phase.links_added)


class _Pair:
    """The ``g1``/``g2`` shape :func:`run_backend` reads."""

    def __init__(self, g1, g2):
        self.g1, self.g2 = g1, g2


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
