"""Tests for the composable Reconciler pipeline."""

import pytest
from oracle_helpers import assert_same_result, fallback_guard, oracle_for

from repro.baselines.common_neighbors import CommonNeighborsMatcher
from repro.core.config import TiePolicy
from repro.core.reconciler import (
    Reconciler,
    common_neighbor_candidates,
    degree_ratio_validator,
    normalized_witness_kernel,
)
from repro.core.result import MatchingResult, StageTiming
from repro.errors import (
    MatcherConfigError,
    MatcherRegistryError,
    NodeNotFoundError,
)
from repro.generators.preferential_attachment import (
    preferential_attachment_graph,
)
from repro.graphs.graph import Graph
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds


@pytest.fixture(scope="module")
def workload():
    graph = preferential_attachment_graph(300, 5, seed=21)
    pair = independent_copies(graph, s1=0.6, seed=22)
    seeds = sample_seeds(pair, 0.12, seed=23)
    return pair, seeds


class TestDefaultPipeline:
    def test_matches_iterated_common_neighbors(self, workload):
        """Default stages = the unbucketed mutual-best matcher."""
        pair, seeds = workload
        pipe = Reconciler(threshold=2, rounds=3)
        baseline = CommonNeighborsMatcher(threshold=2, iterations=3)
        a = pipe.run(pair.g1, pair.g2, seeds)
        b = baseline.run(pair.g1, pair.g2, seeds)
        assert a.links == b.links

    def test_links_extend_seeds(self, workload):
        pair, seeds = workload
        result = Reconciler(threshold=2).run(pair.g1, pair.g2, seeds)
        assert set(seeds.items()) <= set(result.links.items())
        assert len(set(result.links.values())) == len(result.links)

    def test_phase_records_and_timings(self, workload):
        pair, seeds = workload
        result = Reconciler(threshold=2, rounds=2).run(pair.g1, pair.g2, seeds)
        assert result.phases
        assert all(p.links_added >= 0 for p in result.phases)
        stages = {t.stage for t in result.timings}
        # the candidate stage is fused into the kernel by default
        assert {"seeds", "score", "select"} <= stages
        assert "candidates" not in stages
        assert all(isinstance(t, StageTiming) for t in result.timings)
        assert all(t.elapsed >= 0 for t in result.timings)

    def test_progress_events_per_stage(self, workload):
        pair, seeds = workload
        events = []
        Reconciler(threshold=2, rounds=2).run(
            pair.g1, pair.g2, seeds, progress=events.append
        )
        assert events[0].stage == "seeds"
        assert [e.step for e in events] == list(range(1, len(events) + 1))
        assert {"score", "select"} <= {e.stage for e in events}

    def test_stops_early_when_no_progress(self, workload):
        pair, seeds = workload
        result = Reconciler(threshold=2, rounds=50).run(
            pair.g1, pair.g2, seeds
        )
        # Early-exit: far fewer rounds than the budget actually ran.
        assert len(result.phases) < 50


class TestPluggableStages:
    def test_selector_by_name_changes_outcome(self, workload):
        pair, seeds = workload
        strict = Reconciler(threshold=2, rounds=2).run(pair.g1, pair.g2, seeds)
        greedy = Reconciler(
            threshold=2, rounds=2, selector="greedy"
        ).run(pair.g1, pair.g2, seeds)
        assert greedy.num_links >= strict.num_links

    def test_custom_selector_callable(self, workload):
        pair, seeds = workload

        def take_nothing(scores, threshold, tie_policy=TiePolicy.SKIP):
            return {}

        result = Reconciler(selector=take_nothing).run(pair.g1, pair.g2, seeds)
        assert result.links == seeds

    def test_normalized_kernel(self, workload):
        pair, seeds = workload
        result = Reconciler(
            threshold=1, rounds=2, scorer=normalized_witness_kernel
        ).run(pair.g1, pair.g2, seeds)
        assert set(seeds.items()) <= set(result.links.items())

    def test_custom_candidate_stage_restricts_pairs(self, workload):
        pair, seeds = workload
        allowed = {v1 for v1 in pair.g1.nodes() if isinstance(v1, int)}

        def degree_floor_candidates(g1, g2, links):
            cands = common_neighbor_candidates(g1, g2, links)
            return {
                v1: cset
                for v1, cset in cands.items()
                if g1.degree(v1) >= 8
            }

        result = Reconciler(
            threshold=2, candidates=degree_floor_candidates
        ).run(pair.g1, pair.g2, seeds)
        for v1 in result.new_links:
            assert pair.g1.degree(v1) >= 8
            assert v1 in allowed
        # a configured candidate stage is timed and reported
        assert "candidates" in {t.stage for t in result.timings}

    def test_seed_strategy_stage(self, workload):
        pair, seeds = workload

        def halved(g1, g2, s):
            keep = sorted(s)[: len(s) // 2]
            return {v1: s[v1] for v1 in keep}

        result = Reconciler(seed_strategy=halved).run(pair.g1, pair.g2, seeds)
        assert len(result.seeds) == len(seeds) // 2

    def test_explicit_candidate_join_matches_fused_default(self, workload):
        pair, seeds = workload
        fused = Reconciler(threshold=2, rounds=2).run(pair.g1, pair.g2, seeds)
        explicit = Reconciler(
            threshold=2, rounds=2, candidates=common_neighbor_candidates
        ).run(pair.g1, pair.g2, seeds)
        assert fused.links == explicit.links

    def test_rogue_selector_cannot_break_one_to_one(self, workload):
        pair, seeds = workload
        free_right = sorted(
            set(pair.g2.nodes()) - set(seeds.values()), key=repr
        )
        target = free_right[0]

        def collide_everything(scores, threshold, tie_policy):
            return {v1: target for v1 in scores}

        result = Reconciler(selector=collide_everything).run(
            pair.g1, pair.g2, seeds
        )
        assert len(set(result.links.values())) == len(result.links)

    def test_unknown_selector_name(self):
        with pytest.raises(MatcherRegistryError):
            Reconciler(selector="best-first")


class TestValidators:
    def test_validator_filters_new_links(self, workload):
        pair, seeds = workload

        def drop_everything_new(g1, g2, links, start):
            return {v1: v2 for v1, v2 in links.items() if v1 in start}

        result = Reconciler(
            threshold=2, validators=[drop_everything_new]
        ).run(pair.g1, pair.g2, seeds)
        assert result.links == seeds

    def test_validator_may_not_drop_seeds(self, workload):
        pair, seeds = workload

        def overzealous(g1, g2, links, start):
            return {}

        with pytest.raises(MatcherConfigError, match="seed"):
            Reconciler(validators=[overzealous]).run(pair.g1, pair.g2, seeds)

    def test_validator_may_not_remap_seeds(self, workload):
        pair, seeds = workload
        victim = sorted(seeds, key=repr)[0]

        def sneaky(g1, g2, links, start):
            return {**links, victim: object()}

        with pytest.raises(MatcherConfigError, match="remapped"):
            Reconciler(validators=[sneaky]).run(pair.g1, pair.g2, seeds)

    def test_degree_ratio_validator_drops_mismatches(self):
        # Star center (degree 4) vs leaf-degree node: ratio 4 > 2.
        g1 = Graph.from_edges([(0, i) for i in range(1, 5)] + [(1, 5)])
        g2 = Graph.from_edges([(10, i) for i in range(11, 15)] + [(11, 15)])
        validate = degree_ratio_validator(max_ratio=2.0)
        links = {0: 10, 1: 11, 5: 10}
        out = validate(g1, g2, {**links}, {0: 10})
        assert 0 in out  # seed: kept regardless
        assert 1 in out  # degrees 2 vs 2
        assert 5 not in out  # degree 1 vs degree 4: ratio 4 > 2

    def test_degree_ratio_validator_rejects_bad_ratio(self):
        with pytest.raises(MatcherConfigError):
            degree_ratio_validator(0.5)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threshold": 0},
            {"threshold": -1},
            {"rounds": 0},
            {"tie_policy": "skip"},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(MatcherConfigError):
            Reconciler(**kwargs)

    def test_result_type(self, workload):
        pair, seeds = workload
        result = Reconciler().run(pair.g1, pair.g2, seeds)
        assert isinstance(result, MatchingResult)


class TestScorerLifetime:
    def test_user_scorer_close_is_not_called(self, workload):
        """A user-supplied scorer with its own close() manages its own
        lifetime across runs: the pipeline never closes it."""
        pair, seeds = workload
        closed = []

        def scorer(g1, g2, links, candidates=None):
            return {}

        scorer.close = lambda: closed.append(True)
        pipeline = Reconciler(scorer=scorer, rounds=1)
        pipeline.run(pair.g1, pair.g2, seeds)
        pipeline.run(pair.g1, pair.g2, seeds)
        assert closed == []


class TestPrunedInterning:
    @pytest.mark.parametrize("backend", ["csr", "native"])
    def test_pruned_run_interns_the_pair_once(
        self, workload, backend, monkeypatch
    ):
        """Community pruning and the witness scorer share one
        GraphPairIndex, and the result is the MapReduce oracle's."""
        from repro.graphs import pair_index

        pair, seeds = workload
        reference = oracle_for(
            "reconciler", candidate_pruning="community"
        ).run(pair.g1, pair.g2, seeds)
        built = []
        original = pair_index.GraphPairIndex.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self))
            original(self, *args, **kwargs)

        monkeypatch.setattr(
            pair_index.GraphPairIndex, "__init__", counting_init
        )
        with fallback_guard(backend):
            result = Reconciler(
                backend=backend, candidate_pruning="community"
            ).run(pair.g1, pair.g2, seeds)
        assert built == [pair_index.GraphPairIndex]
        assert_same_result(result, reference, backend)


class TestOracle:
    """The default pipeline is the unbucketed MapReduce formulation."""

    @pytest.mark.parametrize("backend", ["csr", "native"])
    @pytest.mark.parametrize("pruning", ["none", "community"])
    @pytest.mark.parametrize("tie_policy", list(TiePolicy))
    def test_identical_to_mapreduce(
        self, workload, backend, pruning, tie_policy
    ):
        pair, seeds = workload
        config = dict(
            threshold=2,
            rounds=3,
            tie_policy=tie_policy,
            candidate_pruning=pruning,
        )
        reference = oracle_for("reconciler", **config).run(
            pair.g1, pair.g2, seeds
        )
        with fallback_guard(backend):
            result = Reconciler(backend=backend, **config).run(
                pair.g1, pair.g2, seeds
            )
        assert_same_result(result, reference, (backend, pruning))
        assert len(result.links) > len(seeds)

    def test_phase_records_follow_their_definition(self, workload):
        """candidates: pairs at or above T after pruning; witnesses:
        the join's expansion before it."""
        pair, seeds = workload
        plain = Reconciler(rounds=1).run(pair.g1, pair.g2, seeds)
        pruned = Reconciler(rounds=1, candidate_pruning="community").run(
            pair.g1, pair.g2, seeds
        )
        (a,), (b,) = plain.phases, pruned.phases
        assert b.witnesses_emitted == a.witnesses_emitted
        assert b.candidates <= a.candidates
        assert a.candidates <= a.witnesses_emitted

    def test_custom_scorer_reports_its_total_score(self, workload):
        pair, seeds = workload
        rows = {}

        def scorer(g1, g2, links, candidates=None):
            rows.clear()
            rows.update(normalized_witness_kernel(g1, g2, links))
            return rows

        result = Reconciler(threshold=1, rounds=1, scorer=scorer).run(
            pair.g1, pair.g2, seeds
        )
        (phase,) = result.phases
        total = sum(sc for row in rows.values() for sc in row.values())
        assert phase.witnesses_emitted == int(total)
        assert phase.candidates == sum(
            sc >= 1 for row in rows.values() for sc in row.values()
        )


class TestScorerAttribute:
    def test_builtin_scorer_is_none(self):
        assert Reconciler().scorer is None

    def test_custom_scorer_is_kept(self):
        pipeline = Reconciler(scorer=normalized_witness_kernel)
        assert pipeline.scorer is normalized_witness_kernel


class TestScoredNodesMustExist:
    @pytest.mark.parametrize(
        "rows", [{2: {"ghost": 5}}, {"ghost": {2: 5}}]
    )
    def test_ghost_node_refused(self, rows):
        """A custom scorer may not link a node its graph lacks."""
        g1 = Graph.from_edges([(1, 2), (2, 3)])

        def ghostly(g1, g2, links, candidates=None):
            return rows

        with pytest.raises(NodeNotFoundError, match="ghost"):
            Reconciler(scorer=ghostly).run(g1, g1.copy(), {1: 1})

    def test_ghost_candidate_refused(self):
        """So may a candidate stage, under the built-in scorer."""
        g1 = Graph.from_edges([(1, 2), (2, 3)])

        def ghostly(g1, g2, links):
            return {2: {2, "ghost"}}

        with pytest.raises(NodeNotFoundError, match="ghost"):
            Reconciler(candidates=ghostly).run(g1, g1.copy(), {1: 1})
