"""``run_trial(deltas=...)``: the harness's streaming column."""

import pytest
from oracle_helpers import oracle_for

from repro.core.config import MatcherConfig
from repro.evaluation.harness import run_trial
from repro.generators.erdos_renyi import gnp_graph
from repro.incremental import split_edge_stream
from repro.mapreduce.matcher_mr import MapReduceUserMatching
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds


@pytest.fixture()
def streamed():
    g = gnp_graph(70, 0.1, seed=21)
    pair = independent_copies(g, 0.7, seed=22)
    seeds = sample_seeds(pair, 0.2, seed=23)
    edges1 = sorted(pair.g1.edges())[:12]
    edges2 = sorted(pair.g2.edges())[:12]
    base1, base2 = pair.g1.copy(), pair.g2.copy()
    for u, v in edges1:
        base1.remove_edge(u, v)
    for u, v in edges2:
        base2.remove_edge(u, v)
    from repro.sampling.pair import GraphPair

    base_pair = GraphPair(base1, base2, dict(pair.identity))
    deltas = split_edge_stream(edges1, edges2, 3)
    return pair, base_pair, seeds, deltas


class TestStreamingTrial:
    def test_links_match_cold_run_on_final_state(self, streamed):
        pair, base_pair, seeds, deltas = streamed
        trial = run_trial(
            base_pair,
            seeds,
            config=MatcherConfig(threshold=2),
            deltas=deltas,
        )
        cold = MapReduceUserMatching(MatcherConfig(threshold=2)).run(
            pair.g1, pair.g2, seeds
        )
        assert trial.result.links == cold.links

    def test_streaming_columns_in_row(self, streamed):
        _pair, base_pair, seeds, deltas = streamed
        trial = run_trial(
            base_pair,
            seeds,
            config=MatcherConfig(threshold=2),
            deltas=deltas,
        )
        assert trial.delta_outcomes is not None
        assert len(trial.delta_outcomes) == 3
        row = trial.row()
        assert row["deltas"] == 3
        assert row["delta_total_s"] >= row["delta_mean_s"] >= 0
        assert "dirty_links" in row
        assert row["elapsed_s"] > 0  # the cold-start comparator

    def test_caller_graphs_never_mutated(self, streamed):
        _pair, base_pair, seeds, deltas = streamed
        edges_before = base_pair.g1.num_edges
        run_trial(
            base_pair,
            seeds,
            config=MatcherConfig(threshold=2),
            deltas=deltas,
        )
        assert base_pair.g1.num_edges == edges_before

    def test_named_matcher_streams_via_fallback(self, streamed):
        pair, base_pair, seeds, deltas = streamed
        trial = run_trial(
            base_pair,
            seeds,
            matcher="common-neighbors",
            deltas=deltas,
        )
        assert trial.delta_outcomes[0].mode == "cold"
        cold = oracle_for("common-neighbors").run(pair.g1, pair.g2, seeds)
        assert trial.result.links == cold.links
        assert "dirty_links" not in trial.row()

    def test_plain_trial_has_no_streaming_columns(self, streamed):
        _pair, base_pair, seeds, _deltas = streamed
        trial = run_trial(base_pair, seeds, config=MatcherConfig(threshold=2))
        assert trial.delta_outcomes is None
        assert "deltas" not in trial.row()

    def test_track_memory_composes(self, streamed):
        _pair, base_pair, seeds, deltas = streamed
        trial = run_trial(
            base_pair,
            seeds,
            config=MatcherConfig(threshold=2),
            deltas=deltas,
            track_memory=True,
        )
        assert trial.peak_mb is not None and trial.peak_mb > 0
