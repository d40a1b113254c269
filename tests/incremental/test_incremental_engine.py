"""Unit tests for :class:`repro.incremental.engine.IncrementalReconciler`."""

import json

import numpy as np
import pytest
from oracle_helpers import oracle_for

from repro.core.config import MatcherConfig
from repro.core.matcher import UserMatching
from repro.errors import ReproError
from repro.generators.erdos_renyi import gnp_graph
from repro.graphs.graph import Graph
from repro.incremental import (
    DeltaError,
    GraphDelta,
    IncrementalReconciler,
)
from repro.registry import get_matcher
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds


def workload(seed=0, n=80, hold_back=15):
    g = gnp_graph(n, 0.08, seed=seed)
    pair = independent_copies(g, 0.7, seed=seed + 1)
    seeds = sample_seeds(pair, 0.2, seed=seed + 2)
    edges1 = sorted(pair.g1.edges())
    edges2 = sorted(pair.g2.edges())
    stream1, stream2 = edges1[:hold_back], edges2[:hold_back]
    base1, base2 = pair.g1.copy(), pair.g2.copy()
    for u, v in stream1:
        base1.remove_edge(u, v)
    for u, v in stream2:
        base2.remove_edge(u, v)
    return pair, seeds, base1, base2, stream1, stream2


def named_rounds(engine):
    """Every cached round over node ids: key, start links, table, emitted."""
    index = engine.index
    rounds = []
    for rc in engine.rounds:
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


class TestLifecycle:
    def test_start_matches_cold_run(self):
        pair, seeds, *_rest = workload()
        engine = IncrementalReconciler(MatcherConfig(threshold=2))
        result = engine.start(pair.g1, pair.g2, seeds)
        cold = UserMatching(
            MatcherConfig(threshold=2, backend="csr")
        ).run(pair.g1, pair.g2, seeds)
        assert result.links == cold.links
        assert result.phases == cold.phases

    def test_apply_before_start_raises(self):
        engine = IncrementalReconciler()
        with pytest.raises(ReproError):
            engine.apply(GraphDelta.build())

    def test_double_start_raises(self):
        pair, seeds, *_rest = workload()
        engine = IncrementalReconciler()
        engine.start(pair.g1, pair.g2, seeds)
        with pytest.raises(ReproError):
            engine.start(pair.g1, pair.g2, seeds)

    def test_empty_delta_is_noop(self):
        pair, seeds, *_rest = workload()
        engine = IncrementalReconciler()
        engine.start(pair.g1, pair.g2, seeds)
        before = engine.result
        outcome = engine.apply(GraphDelta.build())
        assert outcome.mode == "noop"
        assert outcome.result is before

    def test_config_and_matcher_are_exclusive(self):
        with pytest.raises(ReproError):
            IncrementalReconciler(
                MatcherConfig(),
                matcher=get_matcher("common-neighbors"),
            )


class TestWarmEquivalence:
    def test_stream_matches_cold_run(self):
        pair, seeds, base1, base2, s1, s2 = workload(seed=3)
        engine = IncrementalReconciler(
            MatcherConfig(threshold=2, iterations=2)
        )
        engine.start(base1, base2, seeds)
        outcome = None
        for i in range(0, len(s1), 5):
            outcome = engine.apply(
                GraphDelta.build(
                    added_edges1=s1[i : i + 5],
                    added_edges2=s2[i : i + 5],
                )
            )
        assert outcome.mode == "warm"
        cold = UserMatching(
            MatcherConfig(threshold=2, iterations=2, backend="csr")
        ).run(pair.g1, pair.g2, seeds)
        assert engine.result.links == cold.links
        assert engine.result.phases == cold.phases

    def test_removals_can_unmatch(self):
        pair, seeds, *_rest = workload(seed=5)
        engine = IncrementalReconciler(MatcherConfig(threshold=2))
        engine.start(pair.g1, pair.g2, seeds)
        # Remove a big batch of edges; the result must track the cold
        # run even when links disappear.
        victims = sorted(pair.g1.edges())[:20]
        outcome = engine.apply(GraphDelta.build(removed_edges1=victims))
        cold = UserMatching(
            MatcherConfig(threshold=2, backend="csr")
        ).run(pair.g1, pair.g2, seeds)
        assert outcome.result.links == cold.links
        assert (
            outcome.links_added + outcome.links_removed >= 0
        )  # stats exist

    def test_late_seeds_join_the_run(self):
        pair, seeds, base1, base2, s1, s2 = workload(seed=7)
        items = sorted(seeds.items(), key=repr)
        first, late = dict(items[:2]), dict(items[2:])
        engine = IncrementalReconciler(MatcherConfig(threshold=2))
        engine.start(base1, base2, first)
        engine.apply(
            GraphDelta.build(
                added_edges1=s1, added_edges2=s2, added_seeds=late
            )
        )
        cold = UserMatching(
            MatcherConfig(threshold=2, backend="csr")
        ).run(pair.g1, pair.g2, seeds)
        assert engine.result.links == cold.links

    def test_conflicting_seed_delta_raises(self):
        pair, seeds, *_rest = workload(seed=9)
        engine = IncrementalReconciler()
        engine.start(pair.g1, pair.g2, seeds)
        taken = next(iter(seeds.values()))
        fresh_left = next(v for v in pair.g1.nodes() if v not in seeds)
        with pytest.raises(ReproError):
            engine.apply(GraphDelta.build(added_seeds={fresh_left: taken}))


def _engine_state(engine):
    """Everything a rejected delta must leave untouched."""
    index = engine.index
    return (
        sorted(map(sorted, engine.g1.edges())),
        sorted(map(sorted, engine.g2.edges())),
        dict(engine.seeds),
        engine.result,
        engine.applied_deltas,
        None if index is None else (index.csr1, index.csr2, index.n1),
    )


class TestAtomicApply:
    """A rejected delta leaves graphs, index, seeds and result untouched."""

    @pytest.mark.parametrize(
        "name", ["user-matching", "common-neighbors"], ids=["warm", "cold"]
    )
    @pytest.mark.parametrize("case", ["repeated-g1", "repeated-g2"])
    def test_rejected_seed_delta_mutates_nothing(self, name, case):
        pair, seeds, base1, base2, s1, s2 = workload(seed=19)
        engine = IncrementalReconciler(matcher=get_matcher(name))
        engine.start(base1, base2, seeds)
        free1 = sorted(v for v in base1.nodes() if v not in seeds)
        taken2 = next(iter(seeds.values()))
        if case == "repeated-g1":
            bad = [(free1[0], "new-right"), (free1[0], "new-right")]
        else:
            bad = [(free1[0], taken2)]
        before = _engine_state(engine)
        with pytest.raises(DeltaError):
            engine.apply(
                GraphDelta.build(
                    added_edges1=s1,
                    added_edges2=s2 + [("new-right", taken2)],
                    added_seeds=bad,
                )
            )
        assert _engine_state(engine) == before
        # Still healthy: the same edges then apply cleanly and exactly.
        engine.apply(GraphDelta.build(added_edges1=s1, added_edges2=s2))
        cold = get_matcher(name).run(pair.g1, pair.g2, seeds)
        assert engine.result.links == cold.links


class TestColdFallback:
    @pytest.mark.parametrize("name", ["common-neighbors", "degree-sequence"])
    def test_black_box_matcher_streams_exactly(self, name):
        pair, seeds, base1, base2, s1, s2 = workload(seed=11)
        matcher = get_matcher(name)
        engine = IncrementalReconciler(matcher=matcher)
        engine.start(base1, base2, seeds)
        outcome = engine.apply(
            GraphDelta.build(added_edges1=s1, added_edges2=s2)
        )
        assert outcome.mode == "cold"
        assert outcome.dirty_links is None
        cold = oracle_for(name).run(pair.g1, pair.g2, seeds)
        assert engine.result.links == cold.links

    def test_fallback_checkpoint_refused(self, tmp_path):
        pair, seeds, *_rest = workload(seed=13)
        engine = IncrementalReconciler(matcher=get_matcher("common-neighbors"))
        engine.start(pair.g1, pair.g2, seeds)
        with pytest.raises(ReproError):
            engine.save_checkpoint(tmp_path / "x.npz")


class TestCheckpointing:
    def test_roundtrip_and_continue(self, tmp_path):
        pair, seeds, base1, base2, s1, s2 = workload(seed=17)
        engine = IncrementalReconciler(
            MatcherConfig(threshold=2, iterations=2)
        )
        engine.start(base1, base2, seeds)
        half = len(s1) // 2
        engine.apply(
            GraphDelta.build(
                added_edges1=s1[:half], added_edges2=s2[:half]
            )
        )
        path = tmp_path / "state.npz"
        engine.save_checkpoint(path, extra_meta={"k": 1})
        resumed = IncrementalReconciler.resume(path)
        assert resumed.result.links == engine.result.links
        assert resumed.checkpoint_extra == {"k": 1}
        tail = GraphDelta.build(added_edges1=s1[half:], added_edges2=s2[half:])
        engine.apply(tail)
        resumed.apply(tail)
        assert resumed.result.links == engine.result.links
        cold = UserMatching(
            MatcherConfig(threshold=2, iterations=2, backend="csr")
        ).run(pair.g1, pair.g2, seeds)
        assert resumed.result.links == cold.links

    @staticmethod
    def _saved(tmp_path, seed=17):
        pair, seeds, base1, base2, s1, s2 = workload(seed=seed)
        engine = IncrementalReconciler(MatcherConfig(threshold=2))
        engine.start(base1, base2, seeds)
        engine.apply(
            GraphDelta.build(
                added_edges1=s1[:4] + [("fresh", 0)],
                added_edges2=s2[:4],
                removed_edges1=sorted(base1.edges())[:2],
            )
        )
        path = tmp_path / "state.npz"
        engine.save_checkpoint(path)
        return engine, path

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("edges1_u", -1),
            ("edges2_v", "n2"),
            ("seeds_l", -2),
            ("seeds_r", "n2"),
            ("links_l", "n1"),
            ("links_r", -1),
            ("round0_start_l", -1),
            ("round1_start_r", "n2"),
        ],
    )
    def test_out_of_range_ids_refused(self, tmp_path, name, bad):
        from repro.core.links_io import load_checkpoint, save_checkpoint

        engine, path = self._saved(tmp_path)
        arrays, meta = load_checkpoint(path)
        sizes = {"n1": engine.index.n1, "n2": engine.index.n2}
        arrays[name] = arrays[name].copy()
        arrays[name][0] = sizes.get(bad, bad)
        save_checkpoint(path, arrays, meta)
        with pytest.raises(ReproError, match=name):
            IncrementalReconciler.resume(path)

    def test_unequal_id_arrays_refused(self, tmp_path):
        from repro.core.links_io import load_checkpoint, save_checkpoint

        _engine, path = self._saved(tmp_path)
        arrays, meta = load_checkpoint(path)
        arrays["seeds_r"] = arrays["seeds_r"][:-1]
        save_checkpoint(path, arrays, meta)
        with pytest.raises(ReproError, match="differ in length"):
            IncrementalReconciler.resume(path)

    def test_checkpoint_with_retired_knobs_resumes(self, tmp_path):
        """A checkpoint whose config still names the retired execution
        knobs resumes exactly: they never changed results, so the
        reader ignores them."""
        from repro.core.links_io import load_checkpoint, save_checkpoint

        engine, path = self._saved(tmp_path)
        arrays, meta = load_checkpoint(path)
        assert "workers" not in meta["config"]
        assert "memory_budget_mb" not in meta["config"]
        meta["config"].update(workers=3, memory_budget_mb=64)
        save_checkpoint(path, arrays, meta)
        resumed = IncrementalReconciler.resume(path)
        fresh = IncrementalReconciler(resumed.config)
        fresh.start(resumed.g1.copy(), resumed.g2.copy(), resumed.seeds)
        assert resumed.result.links == engine.result.links
        assert resumed.result.links == fresh.result.links
        assert resumed.result.phases == fresh.result.phases
        assert named_rounds(resumed)
        assert named_rounds(resumed) == named_rounds(fresh)

    def test_resumed_graphs_keep_iteration_order(self, tmp_path):
        """Resumed graphs iterate like the add_node/add_edge rebuild.

        Nodes come back in the saved dense order, and ``edges()`` and
        every neighbor set iterate exactly as the sequential rebuild of
        the saved arrays does.
        """
        from repro.core.links_io import decode_node_ids, load_checkpoint

        engine, path = self._saved(tmp_path)
        arrays, _meta = load_checkpoint(path)
        resumed = IncrementalReconciler.resume(path)
        for side, saved, got in (
            ("1", engine.g1, resumed.g1),
            ("2", engine.g2, resumed.g2),
        ):
            nodes = decode_node_ids(arrays[f"nodes{side}"])
            rebuilt = Graph()
            for node in nodes:
                rebuilt.add_node(node)
            for u, v in zip(
                arrays[f"edges{side}_u"].tolist(),
                arrays[f"edges{side}_v"].tolist(),
            ):
                rebuilt.add_edge(nodes[u], nodes[v])
            index_order = [
                (engine.index.node1 if side == "1" else engine.index.node2)(d)
                for d in range(len(nodes))
            ]
            assert list(got.nodes()) == list(rebuilt.nodes()) == index_order
            assert list(got.edges()) == list(rebuilt.edges())
            for node in nodes:
                assert list(got.neighbors(node)) == list(
                    rebuilt.neighbors(node)
                )
                assert got.neighbors(node) == saved.neighbors(node)

    def test_edge_arrays_are_the_current_graphs(self, tmp_path):
        """The checkpoint's edges come from the index's CSR arrays: after
        deltas that remove edges and append nodes they decode to exactly
        each graph's edge set, and a resumed engine applies the rest of
        the stream bit-identically to one that never stopped."""
        from repro.core.links_io import decode_node_ids, load_checkpoint

        _pair, seeds, base1, base2, s1, s2 = workload(seed=29)
        engine = IncrementalReconciler(
            MatcherConfig(threshold=2, iterations=2)
        )
        engine.start(base1, base2, seeds)
        gone1 = sorted(base1.edges())[:3]
        gone2 = sorted(base2.edges())[3:5]
        engine.apply(
            GraphDelta.build(
                added_edges1=s1[:5] + [("new1", 0), ("new1", "new2")],
                added_edges2=s2[:5] + [(1, "new3")],
                removed_edges1=gone1,
                removed_edges2=gone2,
                added_nodes2=["lonely"],
            )
        )
        engine.apply(
            GraphDelta.build(
                removed_edges1=[("new1", 0)], added_edges2=s2[5:7]
            )
        )
        path = tmp_path / "state.npz"
        engine.save_checkpoint(path)
        arrays, _meta = load_checkpoint(path)
        for side, graph in (("1", engine.g1), ("2", engine.g2)):
            nodes = decode_node_ids(arrays[f"nodes{side}"])
            u, v = arrays[f"edges{side}_u"], arrays[f"edges{side}_v"]
            assert (u < v).all()
            pairs = [
                frozenset((nodes[a], nodes[b]))
                for a, b in zip(u.tolist(), v.tolist())
            ]
            assert len(pairs) == len(set(pairs)) == graph.num_edges
            assert set(pairs) == set(map(frozenset, graph.edges()))
            assert set(nodes) == set(graph.nodes())
        resumed = IncrementalReconciler.resume(path)
        assert named_rounds(resumed) == named_rounds(engine)
        rest = [
            GraphDelta.build(added_edges1=s1[5:9], added_edges2=s2[7:9]),
            GraphDelta.build(
                removed_edges1=s1[:2],
                added_edges1=[("new2", "new4")],
                added_seeds=[("new2", "new3")],
            ),
            GraphDelta.build(added_edges1=s1[9:], added_edges2=s2[9:]),
        ]
        for delta in rest:
            ours = engine.apply(delta)
            theirs = resumed.apply(delta)
            assert theirs.mode == ours.mode
            assert theirs.dirty_links == ours.dirty_links
            assert theirs.result.links == ours.result.links
            assert theirs.result.phases == ours.result.phases
            assert named_rounds(resumed) == named_rounds(engine)

    def test_version_1_checkpoint_refused_unread(self, tmp_path):
        """A version-1 file (node ids pickled) is refused as an older
        format that must be rewritten; nothing converts it."""
        from repro.core.links_io import decode_node_ids, load_checkpoint

        _engine, path = self._saved(tmp_path)
        arrays, meta = load_checkpoint(path)
        for side in ("1", "2"):
            ids = decode_node_ids(arrays[f"nodes{side}"])
            pickled = np.empty(len(ids), dtype=object)
            pickled[:] = ids
            arrays[f"nodes{side}"] = pickled
        meta["version"] = 1
        meta_blob = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        old = tmp_path / "v1.npz"
        with open(old, "wb") as fh:
            np.savez_compressed(fh, __meta_json__=meta_blob, **arrays)
        with pytest.raises(ReproError, match="older format.*rewritten"):
            IncrementalReconciler.resume(old)

    def test_unsupported_id_type_refused_at_save(self, tmp_path):
        g1, g2 = Graph(), Graph()
        for g in (g1, g2):
            g.add_edge((0, 1), (0, 2))
            g.add_edge((0, 2), (0, 3))
        engine = IncrementalReconciler(MatcherConfig(threshold=1))
        engine.start(g1, g2, {(0, 1): (0, 1)})
        path = tmp_path / "state.npz"
        with pytest.raises(ReproError, match="of type tuple"):
            engine.save_checkpoint(path)
        assert list(tmp_path.iterdir()) == []

    def test_unstarted_checkpoint_refused(self, tmp_path):
        engine = IncrementalReconciler()
        with pytest.raises(ReproError):
            engine.save_checkpoint(tmp_path / "x.npz")

    def test_incompatible_config_refused(self, tmp_path):
        pair, seeds, *_rest = workload(seed=19)
        engine = IncrementalReconciler(MatcherConfig(threshold=2))
        engine.start(pair.g1, pair.g2, seeds)
        path = tmp_path / "state.npz"
        engine.save_checkpoint(path)
        resumed = IncrementalReconciler.resume(path)
        with pytest.raises(ReproError):
            resumed.require_config(MatcherConfig(threshold=3))
        # Execution-only differences are fine.
        resumed.require_config(MatcherConfig(threshold=2, backend="csr"))

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(ReproError):
            IncrementalReconciler.resume(tmp_path / "missing.npz")


class TestUserMatchingIntegration:
    def test_checkpoint_path_and_warm_start_knobs(self, tmp_path):
        pair, seeds, base1, base2, s1, s2 = workload(seed=23)
        ck = tmp_path / "m.npz"
        cfg = MatcherConfig(
            threshold=2,
            iterations=2,
            checkpoint_path=str(ck),
            warm_start=True,
        )
        matcher = UserMatching(cfg)
        matcher.run(base1, base2, seeds)  # cold + persist
        assert ck.exists()
        warm = matcher.run(pair.g1, pair.g2, seeds)  # resume via diff
        cold = UserMatching(
            MatcherConfig(threshold=2, iterations=2, backend="csr")
        ).run(pair.g1, pair.g2, seeds)
        assert warm.links == cold.links
        # The caller's graphs are never mutated by the resume path.
        assert base1.num_edges == pair.g1.num_edges - len(s1)

    def test_warm_start_requires_checkpoint_path(self):
        from repro.errors import MatcherConfigError

        with pytest.raises(MatcherConfigError):
            MatcherConfig(warm_start=True)


class TestStatsAndRepr:
    def test_outcome_stats_populated(self):
        pair, seeds, base1, base2, s1, s2 = workload(seed=29)
        engine = IncrementalReconciler(MatcherConfig(threshold=2))
        engine.start(base1, base2, seeds)
        outcome = engine.apply(
            GraphDelta.build(added_edges1=s1[:3], added_edges2=s2[:3])
        )
        assert outcome.mode == "warm"
        assert outcome.rescored_rounds + outcome.full_rounds > 0
        assert outcome.elapsed > 0
        assert "IncrementalReconciler" in repr(engine)

    def test_link_arrays_consistent_with_result(self):
        pair, seeds, *_rest = workload(seed=31)
        engine = IncrementalReconciler(MatcherConfig(threshold=2))
        engine.start(pair.g1, pair.g2, seeds)
        exported = engine.index.export_links(engine._link_l, engine._link_r)
        assert exported == engine.result.links
        assert len(np.unique(engine._link_l)) == len(engine._link_l)


class TestReviewRegressions:
    def test_warm_resume_accepts_isolated_seed_node(self, tmp_path):
        """A new isolated node used as a seed must warm-resume exactly
        like a cold run accepts it (delta_between emits node adds)."""
        pair, seeds, *_rest = workload(seed=37)
        ck = tmp_path / "m.npz"
        cfg = MatcherConfig(
            threshold=2, checkpoint_path=str(ck), warm_start=True
        )
        matcher = UserMatching(cfg)
        matcher.run(pair.g1, pair.g2, seeds)
        g1b, g2b = pair.g1.copy(), pair.g2.copy()
        g1b.add_node("iso-left")
        g2b.add_node("iso-right")
        seeds2 = dict(seeds)
        seeds2["iso-left"] = "iso-right"
        warm = matcher.run(g1b, g2b, seeds2)
        cold = UserMatching(
            MatcherConfig(threshold=2, backend="csr")
        ).run(g1b, g2b, seeds2)
        assert warm.links == cold.links

    def test_progress_callback_fires_with_checkpoint_path(self, tmp_path):
        pair, seeds, *_rest = workload(seed=41)
        events = []
        cfg = MatcherConfig(
            threshold=2, checkpoint_path=str(tmp_path / "m.npz")
        )
        result = UserMatching(cfg).run(
            pair.g1, pair.g2, seeds, progress=events.append
        )
        assert len(events) == len(result.phases)
        assert events[-1].links_total == result.num_links

    def test_incremental_ranks_match_full_recompute(self):
        from repro.incremental.delta_index import DeltaIndex

        pair, seeds, base1, base2, s1, s2 = workload(seed=43)
        index = DeltaIndex(base1, base2)
        index.apply_delta(
            GraphDelta.build(
                added_edges1=[("m-new", s1[0][0]), ("a-new", "z-new")],
                added_nodes2=["iso"],
            )
        )
        rank1 = index.rank1.copy()
        rank2 = index.rank2.copy()
        unrank1 = index.unrank1.copy()
        index._recompute_ranks()
        assert (index.rank1 == rank1).all()
        assert (index.rank2 == rank2).all()
        assert (index.unrank1 == unrank1).all()

    def test_noop_warm_resume_keeps_phases_and_progress(self, tmp_path):
        """Re-running identical inputs through warm_start must still
        honor the phases/progress contract of run()."""
        pair, seeds, *_rest = workload(seed=47)
        ck = tmp_path / "m.npz"
        cfg = MatcherConfig(
            threshold=2, checkpoint_path=str(ck), warm_start=True
        )
        matcher = UserMatching(cfg)
        first = matcher.run(pair.g1, pair.g2, seeds)
        events = []
        second = matcher.run(pair.g1, pair.g2, seeds, progress=events.append)
        assert second.links == first.links
        assert second.phases == first.phases
        assert len(second.phases) > 0
        assert len(events) == len(second.phases)
