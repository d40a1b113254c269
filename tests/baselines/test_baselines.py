"""Unit tests for the baseline matchers."""

import pytest

from repro.baselines.common_neighbors import CommonNeighborsMatcher
from repro.baselines.degree_matcher import DegreeSequenceMatcher
from repro.baselines.narayanan_shmatikov import NarayananShmatikovMatcher
from repro.core.config import TiePolicy
from repro.evaluation.metrics import evaluate


class TestCommonNeighborsMatcher:
    def test_includes_seeds(self, pa_pair, pa_seeds):
        result = CommonNeighborsMatcher().run(pa_pair.g1, pa_pair.g2, pa_seeds)
        for v1, v2 in pa_seeds.items():
            assert result.links[v1] == v2

    def test_no_bucketing_single_phase_per_iteration(self, pa_pair, pa_seeds):
        result = CommonNeighborsMatcher(iterations=2).run(
            pa_pair.g1, pa_pair.g2, pa_seeds
        )
        assert len(result.phases) <= 2
        assert all(p.bucket_exponent is None for p in result.phases)

    def test_one_to_one(self, pa_pair, pa_seeds):
        result = CommonNeighborsMatcher(iterations=2).run(
            pa_pair.g1, pa_pair.g2, pa_seeds
        )
        assert len(set(result.links.values())) == len(result.links)

    def test_tie_policy_configurable(self, pa_pair, pa_seeds):
        skip = CommonNeighborsMatcher(
            iterations=2, tie_policy=TiePolicy.SKIP
        ).run(pa_pair.g1, pa_pair.g2, pa_seeds)
        forced = CommonNeighborsMatcher(
            iterations=2, tie_policy=TiePolicy.LOWEST_ID
        ).run(pa_pair.g1, pa_pair.g2, pa_seeds)
        assert len(forced.links) >= len(skip.links)

    def test_user_matching_beats_baseline_precision(self, pa_pair, pa_seeds):
        from repro.core.config import MatcherConfig
        from repro.core.matcher import UserMatching

        full = UserMatching(
            MatcherConfig(threshold=2, iterations=2)
        ).run(pa_pair.g1, pa_pair.g2, pa_seeds)
        baseline = CommonNeighborsMatcher(
            threshold=1, iterations=2, tie_policy=TiePolicy.LOWEST_ID
        ).run(pa_pair.g1, pa_pair.g2, pa_seeds)
        rep_full = evaluate(full, pa_pair)
        rep_base = evaluate(baseline, pa_pair)
        assert rep_full.precision >= rep_base.precision


class TestNarayananShmatikov:
    def test_includes_seeds(self, pa_pair, pa_seeds):
        result = NarayananShmatikovMatcher(max_sweeps=2).run(
            pa_pair.g1, pa_pair.g2, pa_seeds
        )
        for v1, v2 in pa_seeds.items():
            assert result.links[v1] == v2

    def test_expands_beyond_seeds(self, pa_pair, pa_seeds):
        result = NarayananShmatikovMatcher(max_sweeps=2).run(
            pa_pair.g1, pa_pair.g2, pa_seeds
        )
        assert result.num_new_links > 0

    def test_reasonable_precision_on_easy_instance(self, pa_pair, pa_seeds):
        result = NarayananShmatikovMatcher(max_sweeps=2).run(
            pa_pair.g1, pa_pair.g2, pa_seeds
        )
        report = evaluate(result, pa_pair)
        assert report.precision > 0.6

    def test_eccentricity_raises_precision(self, pa_pair, pa_seeds):
        lax = NarayananShmatikovMatcher(
            eccentricity_threshold=0.0, max_sweeps=2
        ).run(pa_pair.g1, pa_pair.g2, pa_seeds)
        strict = NarayananShmatikovMatcher(
            eccentricity_threshold=1.5, max_sweeps=2
        ).run(pa_pair.g1, pa_pair.g2, pa_seeds)
        assert len(strict.links) <= len(lax.links)

    def test_tied_top_score_goes_to_the_canonical_smallest_id(self):
        """At threshold 0 a tie is accepted; dict order must not pick."""
        best = NarayananShmatikovMatcher._eccentric_best
        assert best({"b": 2.0, "a": 2.0, "c": 1.0}, 0.0) == "a"
        assert best({"a": 2.0, "b": 2.0, "c": 1.0}, 0.0) == "a"
        assert best({"b": 2.0, "a": 2.0, "c": 1.0}, 0.5) is None

    def test_invalid_params(self):
        with pytest.raises(Exception):
            NarayananShmatikovMatcher(eccentricity_threshold=-1)
        with pytest.raises(Exception):
            NarayananShmatikovMatcher(max_sweeps=0)

    def test_no_rematch_mode_keeps_one_to_one(self, pa_pair, pa_seeds):
        result = NarayananShmatikovMatcher(
            max_sweeps=2, allow_rematch=False
        ).run(pa_pair.g1, pa_pair.g2, pa_seeds)
        assert len(set(result.links.values())) == len(result.links)


class TestDegreeSequenceMatcher:
    def test_matches_everything(self, pa_pair, pa_seeds):
        result = DegreeSequenceMatcher().run(pa_pair.g1, pa_pair.g2, pa_seeds)
        assert result.num_links >= min(
            pa_pair.g1.num_nodes, pa_pair.g2.num_nodes
        ) - len(pa_seeds)

    def test_max_matches(self, pa_pair, pa_seeds):
        result = DegreeSequenceMatcher(max_matches=5).run(
            pa_pair.g1, pa_pair.g2, pa_seeds
        )
        assert result.num_new_links == 5

    def test_weaker_than_user_matching(self, pa_pair, pa_seeds):
        from repro.core.config import MatcherConfig
        from repro.core.matcher import UserMatching

        structural = UserMatching(
            MatcherConfig(threshold=2, iterations=2)
        ).run(pa_pair.g1, pa_pair.g2, pa_seeds)
        naive = DegreeSequenceMatcher().run(pa_pair.g1, pa_pair.g2, pa_seeds)
        rep_s = evaluate(structural, pa_pair)
        rep_n = evaluate(naive, pa_pair)
        assert rep_s.precision > rep_n.precision
