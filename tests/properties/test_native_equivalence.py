"""dict↔csr↔native three-way equivalence: identical links everywhere.

``backend="native"`` swaps the csr kernels for compiled C, but the
contract is bit-exactness: for every registry matcher, worker count, and
block plan, the native backend must produce exactly the same
``MatchingResult.links`` as both ``backend="dict"`` and
``backend="csr"``.  The forced-fallback classes additionally pin the
degradation contract — with the kill switch set (or no toolchain at
all), ``backend="native"`` still runs, warns exactly once per process,
and still matches the other two backends link-for-link.

Everything here passes whether or not a C compiler exists: when the
toolchain is missing the native runs *are* fallback runs, and the wall
degenerates to re-checking dict↔csr — still true, just not new.
"""

import os
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.shards as shards
from repro.core.config import MatcherConfig
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

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "3"))

#: Inflated per-pair cost so a 1 MiB budget forces multi-block rounds.
FORCED_PAIR_BYTES = 1 << 21

NATIVE = native_available()


def force_blocking():
    return mock.patch.object(shards, "WITNESS_PAIR_BYTES", FORCED_PAIR_BYTES)


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

    @pytest.mark.parametrize("name", sorted(MATCHER_CONFIGS))
    def test_links_identical_with_workers(self, name):
        pair, seeds = workload(seed=300)
        config = dict(MATCHER_CONFIGS[name], workers=WORKERS)
        csr = run_backend(name, "csr", seeds, pair, **config)
        nat = run_backend(name, "native", seeds, pair, **config)
        assert nat.links == csr.links

    @pytest.mark.parametrize("name", sorted(MATCHER_CONFIGS))
    def test_links_identical_forced_multi_block(self, name):
        pair, seeds = workload(seed=400)
        config = dict(MATCHER_CONFIGS[name], memory_budget_mb=1)
        ref = run_backend(name, "dict", seeds, pair, **MATCHER_CONFIGS[name])
        with force_blocking():
            csr = run_backend(name, "csr", seeds, pair, **config)
            nat = run_backend(name, "native", seeds, pair, **config)
        assert csr.links == ref.links
        assert nat.links == ref.links

    def test_blocked_and_workers_compose_natively(self):
        pair, seeds = workload(seed=500)
        config = {
            "threshold": 2,
            "iterations": 2,
            "memory_budget_mb": 1,
            "workers": WORKERS,
        }
        ref = run_backend(
            "user-matching", "dict", seeds, pair, threshold=2, iterations=2
        )
        with force_blocking():
            nat = run_backend("user-matching", "native", seeds, pair,
                              **config)
        assert nat.links == ref.links


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

    def test_fallback_with_workers_and_blocking(self):
        pair, seeds = workload(seed=700)
        ref = UserMatching(
            MatcherConfig(threshold=2, iterations=2, backend="csr")
        ).run(pair.g1, pair.g2, seeds)
        with force_blocking(), pytest.warns(NativeFallbackWarning):
            got = UserMatching(
                MatcherConfig(
                    threshold=2,
                    iterations=2,
                    backend="native",
                    workers=WORKERS,
                    memory_budget_mb=1,
                )
            ).run(pair.g1, pair.g2, seeds)
        assert got.links == ref.links

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
