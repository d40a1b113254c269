"""serial↔parallel equivalence: identical links for every worker count.

``workers`` is a pure execution knob — for any workload, any registered
matcher, and either backend, ``workers=N`` must produce exactly the same
``MatchingResult.links`` as ``workers=1``.  These tests pin that down on
randomized graphs (hypothesis-driven G(n, p) workloads plus seeded
preferential-attachment spot checks) for all seven registry matchers on
both the ``dict`` and ``csr`` backends, plus the edge cases where the
shard planner degenerates: empty buckets (no eligible candidates at a
degree floor), a single link (one shard, idle workers), and no seeds at
all.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MatcherConfig, TiePolicy
from repro.core.matcher import UserMatching
from repro.generators.erdos_renyi import gnp_graph
from repro.generators.preferential_attachment import (
    preferential_attachment_graph,
)
from repro.graphs.graph import Graph
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

#: Default exercises an uneven split (3 does not divide most rounds);
#: the nightly workflow re-runs the wall at 4 via this env override.
WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "3"))


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
    def test_every_matcher_accepts_workers(self):
        """The config sweep covers the whole registry."""
        assert sorted(MATCHER_CONFIGS) == matcher_names()

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    @pytest.mark.parametrize("name", sorted(MATCHER_CONFIGS))
    def test_links_identical_across_worker_counts(self, name, backend):
        pair, seeds = workload(seed=17)
        config = MATCHER_CONFIGS[name]
        ref = get_matcher(
            name, backend=backend, workers=1, **config
        ).run(pair.g1, pair.g2, seeds)
        par = get_matcher(
            name, backend=backend, workers=WORKERS, **config
        ).run(pair.g1, pair.g2, seeds)
        assert par.links == ref.links
        assert par.seeds == ref.seeds


class TestUserMatchingProperties:
    @given(gnp_workload(), st.integers(1, 4))
    @settings(max_examples=12, deadline=None)
    def test_links_identical_over_thresholds(self, wl, threshold):
        pair, seeds = wl
        ref = UserMatching(
            MatcherConfig(
                threshold=threshold, iterations=2, backend="csr"
            )
        ).run(pair.g1, pair.g2, seeds)
        par = UserMatching(
            MatcherConfig(
                threshold=threshold,
                iterations=2,
                backend="csr",
                workers=WORKERS,
            )
        ).run(pair.g1, pair.g2, seeds)
        assert par.links == ref.links

    @given(gnp_workload())
    @settings(max_examples=8, deadline=None)
    def test_links_identical_lowest_id_and_unbucketed(self, wl):
        pair, seeds = wl
        for kwargs in (
            {"tie_policy": TiePolicy.LOWEST_ID},
            {"use_degree_buckets": False},
            {"min_bucket_exponent": 0, "threshold": 1},
        ):
            ref = UserMatching(
                MatcherConfig(backend="csr", **kwargs)
            ).run(pair.g1, pair.g2, seeds)
            par = UserMatching(
                MatcherConfig(backend="csr", workers=WORKERS, **kwargs)
            ).run(pair.g1, pair.g2, seeds)
            assert par.links == ref.links, kwargs

    @given(gnp_workload())
    @settings(max_examples=8, deadline=None)
    def test_phase_accounting_identical(self, wl):
        """Same per-round candidates/witness counts, not just links."""
        pair, seeds = wl
        ref = UserMatching(
            MatcherConfig(iterations=2, backend="csr")
        ).run(pair.g1, pair.g2, seeds)
        par = UserMatching(
            MatcherConfig(iterations=2, backend="csr", workers=WORKERS)
        ).run(pair.g1, pair.g2, seeds)
        assert len(par.phases) == len(ref.phases)
        for a, b in zip(par.phases, ref.phases):
            assert a == b


class TestShardEdgeCases:
    def test_empty_bucket_rounds(self):
        """A high max_degree forces top buckets with no candidates."""
        pair, seeds = workload(n=80, seed=5)
        base = dict(threshold=2, iterations=1, max_degree=4096, backend="csr")
        ref = UserMatching(MatcherConfig(**base)).run(pair.g1, pair.g2, seeds)
        par = UserMatching(
            MatcherConfig(workers=WORKERS, **base)
        ).run(pair.g1, pair.g2, seeds)
        assert par.links == ref.links

    def test_single_link_single_node_shards(self):
        """One seed -> one shard; the other workers stay idle."""
        g = Graph.from_edges(
            [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (1, 4)]
        )
        pair = independent_copies(g, 1.0, seed=0)
        seeds = {0: 0}
        # LOWEST_ID: with a single witness everywhere SKIP would tie
        # every candidate away and nothing could ever link.
        base = dict(
            threshold=1,
            min_bucket_exponent=0,
            backend="csr",
            iterations=2,
            tie_policy=TiePolicy.LOWEST_ID,
        )
        ref = UserMatching(MatcherConfig(**base)).run(pair.g1, pair.g2, seeds)
        par = UserMatching(
            MatcherConfig(workers=WORKERS, **base)
        ).run(pair.g1, pair.g2, seeds)
        assert par.links == ref.links
        assert len(par.links) > 1  # it actually matched something

    def test_no_seeds_at_all(self):
        pair, _ = workload(n=60, seed=9)
        cfg = MatcherConfig(backend="csr", workers=WORKERS)
        result = UserMatching(cfg).run(pair.g1, pair.g2, {})
        assert result.links == {}

    def test_workers_exceed_links(self):
        """More workers than links: planner emits < workers shards."""
        pair, seeds = workload(n=100, seed=3)
        two_seeds = dict(list(seeds.items())[:2])
        base = dict(threshold=2, iterations=2, backend="csr")
        ref = UserMatching(MatcherConfig(**base)).run(
            pair.g1, pair.g2, two_seeds
        )
        par = UserMatching(MatcherConfig(workers=8, **base)).run(
            pair.g1, pair.g2, two_seeds
        )
        assert par.links == ref.links

    def test_isolated_nodes_and_empty_graph_sides(self):
        g1 = Graph.from_edges([(0, 1)], nodes=[0, 1, 2, 3])
        g2 = Graph.from_edges([(0, 1)], nodes=[0, 1, 2, 3])
        cfg = MatcherConfig(
            backend="csr", workers=WORKERS, threshold=1,
            min_bucket_exponent=0,
        )
        result = UserMatching(cfg).run(g1, g2, {0: 0})
        serial = UserMatching(
            MatcherConfig(
                backend="csr", threshold=1, min_bucket_exponent=0
            )
        ).run(g1, g2, {0: 0})
        assert result.links == serial.links


class TestSelectorAndMRSweeps:
    @pytest.mark.parametrize(
        "selector", ["mutual-best", "greedy", "gale-shapley"]
    )
    def test_reconciler_selectors_identical(self, selector):
        pair, seeds = workload(seed=23)
        ref = get_matcher(
            "reconciler", selector=selector, backend="csr", workers=1
        ).run(pair.g1, pair.g2, seeds)
        par = get_matcher(
            "reconciler",
            selector=selector,
            backend="csr",
            workers=WORKERS,
        ).run(pair.g1, pair.g2, seeds)
        assert par.links == ref.links, selector

    @pytest.mark.parametrize("partitions", [1, 4])
    def test_mapreduce_reduce_sharding_identical(self, partitions):
        from repro.mapreduce.engine import LocalMapReduce
        from repro.mapreduce.matcher_mr import MapReduceUserMatching

        pair, seeds = workload(n=120, seed=31)
        cfg = MatcherConfig(threshold=2, iterations=1, backend="dict")
        ref = MapReduceUserMatching(
            cfg, engine=LocalMapReduce(partitions=partitions)
        ).run(pair.g1, pair.g2, seeds)
        par = MapReduceUserMatching(
            cfg,
            engine=LocalMapReduce(
                partitions=partitions, workers=WORKERS
            ),
        ).run(pair.g1, pair.g2, seeds)
        assert par.links == ref.links
