"""incremental↔cold equivalence: streaming deltas never changes links.

The incremental engine's contract: replaying any edge stream as ``k``
deltas through :class:`~repro.incremental.engine.IncrementalReconciler`
yields a result **bit-identical** to one cold run of the matcher's
paper-literal reference on the final graphs (see ``oracle_helpers``;
the MapReduce formulation for User-Matching) — for every registry
matcher, on both backends.  The
warm engine earns this with exact score-table corrections; black-box
matchers earn it by cold replay; either way the seam must never leak.

The sweep below pins the full matrix (7 matchers × {csr, native}) on a
seeded PA workload, and hypothesis drives the warm
engine through randomized G(n, p) streams — including removals, late
seed confirmations, and brand-new nodes — under every matcher config
knob that changes the schedule.

Links and phases alone miss a witness count that drifts while it stays
below the threshold, so the per-round wall also compares the warm
engine's whole cached score tables with a freshly started engine's
after every delta, and one deterministic stream forces every kind of
correction (adjacency-dirty hub, bucket-floor flip, departed link,
arrived link) through the patch path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_helpers import MATCHER_CONFIGS, assert_same_result, oracle_for

from repro.core.config import MatcherConfig, TiePolicy
from repro.core.matcher import UserMatching
from repro.generators.erdos_renyi import gnp_graph
from repro.generators.preferential_attachment import (
    preferential_attachment_graph,
)
from repro.incremental import (
    GraphDelta,
    IncrementalReconciler,
    split_edge_stream,
)
from repro.mapreduce.matcher_mr import MapReduceUserMatching
from repro.registry import get_matcher, matcher_names
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds

def streamed_workload(n=200, m=4, s=0.6, link_prob=0.12, seed=0,
                      hold_fraction=0.25, num_deltas=3):
    """Base pair + seeds + deltas whose replay restores the full pair."""
    g = preferential_attachment_graph(n, m, seed=seed)
    pair = independent_copies(g, s, seed=seed + 1)
    seeds = sample_seeds(pair, link_prob, seed=seed + 2)
    import random

    rng = random.Random(seed + 3)
    edges1 = sorted(pair.g1.edges())
    edges2 = sorted(pair.g2.edges())
    rng.shuffle(edges1)
    rng.shuffle(edges2)
    k1 = int(len(edges1) * hold_fraction)
    k2 = int(len(edges2) * hold_fraction)
    stream1, stream2 = edges1[:k1], edges2[:k2]
    base1, base2 = pair.g1.copy(), pair.g2.copy()
    for u, v in stream1:
        base1.remove_edge(u, v)
    for u, v in stream2:
        base2.remove_edge(u, v)
    deltas = split_edge_stream(stream1, stream2, num_deltas)
    return pair, seeds, base1, base2, deltas


class TestRegistrySweep:
    def test_sweep_covers_the_whole_registry(self):
        assert sorted(MATCHER_CONFIGS) == matcher_names()

    @pytest.mark.parametrize("backend", ["csr", "native"])
    @pytest.mark.parametrize("name", sorted(MATCHER_CONFIGS))
    def test_stream_replay_matches_cold_run(self, name, backend):
        pair, seeds, base1, base2, deltas = streamed_workload(seed=41)
        config = MATCHER_CONFIGS[name]
        matcher = get_matcher(name, backend=backend, **config)
        engine = IncrementalReconciler(matcher=matcher)
        engine.start(base1, base2, seeds)
        for delta in deltas:
            engine.apply(delta)
        cold = oracle_for(name, **config).run(pair.g1, pair.g2, seeds)
        assert_same_result(engine.result, cold, name)


@st.composite
def gnp_stream(draw):
    n = draw(st.integers(30, 90))
    p = draw(st.floats(0.04, 0.15))
    s = draw(st.floats(0.4, 0.9))
    link_prob = draw(st.floats(0.05, 0.3))
    seed = draw(st.integers(0, 10_000))
    num_deltas = draw(st.integers(1, 4))
    g = gnp_graph(n, p, seed=seed)
    pair = independent_copies(g, s, seed=seed + 1)
    seeds = sample_seeds(pair, link_prob, seed=seed + 2)
    import random

    rng = random.Random(seed + 3)
    edges1 = sorted(pair.g1.edges())
    edges2 = sorted(pair.g2.edges())
    rng.shuffle(edges1)
    rng.shuffle(edges2)
    k1, k2 = len(edges1) // 3, len(edges2) // 3
    stream1, stream2 = edges1[:k1], edges2[:k2]
    base1, base2 = pair.g1.copy(), pair.g2.copy()
    for u, v in stream1:
        base1.remove_edge(u, v)
    for u, v in stream2:
        base2.remove_edge(u, v)
    # Hold back some seeds to confirm mid-stream.
    seed_items = sorted(seeds.items(), key=repr)
    rng.shuffle(seed_items)
    half = max(1, len(seed_items) // 2) if seed_items else 0
    start_seeds = dict(seed_items[:half])
    late_seeds = dict(seed_items[half:])
    deltas = split_edge_stream(
        stream1, stream2, num_deltas, added_seeds=late_seeds
    )
    return pair, seeds, base1, base2, start_seeds, deltas


def round_tables(engine):
    """Every cached round over node ids: key, start links, table, emitted.

    Also checks the invariants the next delta's patch relies on: table
    keys strictly ascending and every stored score positive.
    """
    index = engine.index
    rounds = []
    for rc in engine.rounds:
        assert (np.diff(rc.packed) > 0).all() and (rc.score > 0).all()
        v1, v2 = np.divmod(rc.packed, index.n2)
        table = {
            (index.node1(a), index.node2(b)): score
            for a, b, score in zip(
                v1.tolist(), v2.tolist(), rc.score.tolist()
            )
        }
        start = index.export_links(rc.start_l, rc.start_r)
        rounds.append((rc.key, start, table, rc.emitted))
    return rounds


def assert_tables_match_fresh_start(engine):
    """The warm engine's rounds equal an engine started on its graphs."""
    fresh = IncrementalReconciler(engine.config)
    fresh.start(engine.g1.copy(), engine.g2.copy(), engine.seeds)
    assert round_tables(engine) == round_tables(fresh)


class TestWarmEngineProperties:
    @pytest.mark.parametrize("backend", ["csr", "native"])
    @given(wl=gnp_stream())
    @settings(max_examples=15, deadline=None)
    def test_random_streams_bit_identical(self, backend, wl):
        pair, seeds, base1, base2, start_seeds, deltas = wl
        cfg = MatcherConfig(threshold=2, iterations=2, backend=backend)
        engine = IncrementalReconciler(cfg)
        engine.start(base1, base2, start_seeds)
        for delta in deltas:
            engine.apply(delta)
            assert_tables_match_fresh_start(engine)
        cold = MapReduceUserMatching(cfg).run(pair.g1, pair.g2, seeds)
        assert_same_result(engine.result, cold)

    @given(gnp_stream())
    @settings(max_examples=8, deadline=None)
    def test_config_knobs_stay_identical(self, wl):
        pair, seeds, base1, base2, start_seeds, deltas = wl
        for kwargs in (
            {"tie_policy": TiePolicy.LOWEST_ID},
            {"use_degree_buckets": False},
            {"threshold": 1, "min_bucket_exponent": 0},
            {"threshold": 3},
        ):
            engine = IncrementalReconciler(MatcherConfig(**kwargs))
            engine.start(base1.copy(), base2.copy(), start_seeds)
            for delta in deltas:
                engine.apply(delta)
            cold = MapReduceUserMatching(MatcherConfig(**kwargs)).run(
                pair.g1, pair.g2, seeds
            )
            assert_same_result(engine.result, cold, kwargs)

    @given(gnp_stream(), st.integers(0, 100))
    @settings(max_examples=8, deadline=None)
    def test_removals_and_new_nodes(self, wl, salt):
        import random

        pair, seeds, base1, base2, start_seeds, deltas = wl
        cfg = MatcherConfig(threshold=2)
        engine = IncrementalReconciler(cfg)
        engine.start(base1, base2, start_seeds)
        for delta in deltas:
            engine.apply(delta)
        # One more delta: removals plus brand-new nodes on both sides.
        rng = random.Random(salt)
        present = sorted(engine.g1.edges())
        rng.shuffle(present)
        anchor1 = next(iter(engine.g1.nodes()))
        anchor2 = next(iter(engine.g2.nodes()))
        engine.apply(
            GraphDelta.build(
                removed_edges1=present[: min(4, len(present))],
                added_edges1=[("fresh-a", anchor1)],
                added_edges2=[("fresh-a", anchor2), ("fresh-b", anchor2)],
            )
        )
        cold = MapReduceUserMatching(cfg).run(
            engine.g1, engine.g2, engine.seeds
        )
        assert_same_result(engine.result, cold)

    def test_forced_compaction_every_delta(self):
        pair, seeds, base1, base2, deltas = streamed_workload(
            seed=43, num_deltas=4
        )
        engine = IncrementalReconciler(MatcherConfig(threshold=2))
        engine.start(base1, base2, seeds)
        for delta in deltas:
            engine.apply(delta)
        cold = MapReduceUserMatching(MatcherConfig(threshold=2)).run(
            pair.g1, pair.g2, seeds
        )
        assert_same_result(engine.result, cold)


class TestRoundTables:
    """One stream whose deltas force each kind of round correction."""

    def test_every_correction_kind_is_patched_exactly(self):
        pair, seeds, *_rest = streamed_workload(seed=5)
        engine = IncrementalReconciler(
            MatcherConfig(threshold=2, iterations=2)
        )
        engine.start(pair.g1.copy(), pair.g2.copy(), seeds)
        g1 = engine.g1
        nodes = sorted(g1.nodes())
        exponents = {rc.key[1] for rc in engine.rounds}
        below_floor = {(1 << j) - 1 for j in exponents}

        def partner(u):
            """A non-neighbor of *u* whose degree crosses no floor."""
            return next(
                v for v in nodes
                if v != u and not g1.has_edge(u, v)
                and g1.degree(v) not in below_floor
            )

        linked = set(engine.links)
        hub = max(sorted(seeds), key=g1.degree)
        flip = next(
            v for v in nodes
            if g1.degree(v) in below_floor and v not in linked
            and any(w in linked for w in g1.neighbors(v))
        )
        found = min(
            (u for u in engine.links if u not in seeds), key=g1.degree
        )
        late = next(
            v for v in nodes
            if v not in linked and v not in engine.links.values()
        )
        steps = {
            "hub": GraphDelta.build(added_edges1=[(hub, partner(hub))]),
            "flip": GraphDelta.build(added_edges1=[(flip, partner(flip))]),
            "departed": GraphDelta.build(
                removed_edges1=[(found, w) for w in g1.neighbors(found)]
            ),
            "arrived": GraphDelta.build(added_seeds={late: late}),
        }
        for kind, delta in steps.items():
            before = {key: start for key, start, *_ in round_tables(engine)}
            outcome = engine.apply(delta)
            assert outcome.full_rounds == 0, kind
            assert outcome.rescored_rounds == len(engine.rounds), kind
            after = {key: start for key, start, *_ in round_tables(engine)}
            moved = [
                (before[key].items() - start.items(),
                 start.items() - before[key].items())
                for key, start in after.items()
            ]
            if kind == "hub":
                assert all(start.get(hub) == hub for start in after.values())
            elif kind == "flip":
                assert any(
                    w in start
                    for (_i, j), start in after.items()
                    if g1.degree(flip) == 1 << j
                    for w in g1.neighbors(flip)
                )
            elif kind == "departed":
                assert any(gone for gone, _new in moved)
            else:
                assert any(new for _gone, new in moved)
            assert_tables_match_fresh_start(engine)
        cold = UserMatching(
            MatcherConfig(threshold=2, iterations=2, backend="csr")
        ).run(engine.g1, engine.g2, engine.seeds)
        assert engine.result.links == cold.links
