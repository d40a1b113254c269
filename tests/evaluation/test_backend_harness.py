"""Backend plumbing through the trial harness and compare_matchers."""

import pytest
from oracle_helpers import oracle_for

from repro.core.config import MatcherConfig
from repro.core.kernels import ArrayScores
from repro.core.matcher import UserMatching
from repro.core.reconciler import Reconciler
from repro.core.selectors import select_mutual_best
from repro.errors import MatcherConfigError
from repro.evaluation.harness import compare_matchers, run_trial
from repro.graphs.pair_index import GraphPairIndex


class TestReconcilerCustomStages:
    def test_custom_selector_gets_dict_scores_on_csr(self, pa_pair, pa_seeds):
        """A custom selector sees the documented dict table shape."""
        seen_types = []

        def my_selector(scores, threshold, tie_policy=None):
            seen_types.append(type(scores))
            assert isinstance(scores, dict)
            return select_mutual_best(
                ArrayScores.from_dict(index, scores), threshold
            )

        index = GraphPairIndex(pa_pair.g1, pa_pair.g2)
        ref = oracle_for("reconciler", threshold=2, rounds=2).run(
            pa_pair.g1, pa_pair.g2, pa_seeds
        )
        csr = Reconciler(
            threshold=2, rounds=2, selector=my_selector, backend="csr"
        ).run(pa_pair.g1, pa_pair.g2, pa_seeds)
        assert csr.links == ref.links
        assert seen_types and all(t is dict for t in seen_types)

    def test_seed_strategy_with_missing_right_endpoint(
        self, pa_pair, pa_seeds
    ):
        """A link pointing outside g2 blocks its left node and joins
        nothing: the run equals the oracle's on g1 without that node."""
        lost = next(iter(pa_pair.g1.nodes()))

        def loose_seeds(g1, g2, seeds):
            out = dict(seeds)
            out[lost] = "not-in-g2"
            return out

        g1 = pa_pair.g1.copy()
        g1.remove_node(lost)
        seeds = {v1: v2 for v1, v2 in pa_seeds.items() if v1 != lost}
        ref = oracle_for("reconciler", threshold=2, rounds=2).run(
            g1, pa_pair.g2, seeds
        )
        for backend in ("csr", "native"):
            got = Reconciler(
                threshold=2,
                rounds=2,
                seed_strategy=loose_seeds,
                backend=backend,
            ).run(pa_pair.g1, pa_pair.g2, pa_seeds)
            assert got.links == {**ref.links, lost: "not-in-g2"}, backend
            assert got.phases == ref.phases, backend


class TestRunTrialBackend:
    def test_backend_applied_to_default_matcher(self, pa_pair, pa_seeds):
        ref = run_trial(
            pa_pair, pa_seeds, matcher="mapreduce-user-matching"
        )
        for backend in ("csr", "native"):
            got = run_trial(pa_pair, pa_seeds, backend=backend)
            assert got.result.links == ref.result.links, backend
            assert got.result.phases == ref.result.phases, backend

    def test_backend_overrides_config(self, pa_pair, pa_seeds):
        config = MatcherConfig(threshold=3, iterations=2, backend="native")
        ref = run_trial(pa_pair, pa_seeds, config=config)
        csr = run_trial(pa_pair, pa_seeds, config=config, backend="csr")
        assert csr.result.links == ref.result.links

    def test_backend_forwarded_to_named_matcher(self, pa_pair, pa_seeds):
        ref = run_trial(
            pa_pair, pa_seeds, matcher="common-neighbors", backend="native"
        )
        csr = run_trial(
            pa_pair, pa_seeds, matcher="common-neighbors", backend="csr"
        )
        assert csr.result.links == ref.result.links

    def test_invalid_backend_rejected(self, pa_pair, pa_seeds):
        with pytest.raises(MatcherConfigError):
            run_trial(pa_pair, pa_seeds, backend="gpu")

    def test_backend_with_instance_rejected(self, pa_pair, pa_seeds):
        matcher = UserMatching(MatcherConfig())
        with pytest.raises(MatcherConfigError):
            run_trial(pa_pair, pa_seeds, matcher=matcher, backend="csr")


class TestCompareMatchersBackend:
    def test_backend_column_recorded(self, pa_pair, pa_seeds):
        trials = compare_matchers(
            pa_pair,
            pa_seeds,
            ["user-matching", "degree-sequence"],
            backend="csr",
        )
        for trial in trials:
            assert trial.params["backend"] == "csr"
            assert "backend" in trial.row()

    def test_no_backend_column_by_default(self, pa_pair, pa_seeds):
        trials = compare_matchers(pa_pair, pa_seeds, ["degree-sequence"])
        assert "backend" not in trials[0].params

    def test_instances_not_stamped_with_backend(self, pa_pair, pa_seeds):
        """A pre-built instance keeps its own backend and gets no column."""
        instance = UserMatching(MatcherConfig())
        trials = compare_matchers(
            pa_pair,
            pa_seeds,
            [instance, "user-matching"],
            backend="csr",
        )
        assert "backend" not in trials[0].params
        assert trials[1].params["backend"] == "csr"
        assert trials[0].result.links == trials[1].result.links

    def test_backends_agree_across_registry_names(self, pa_pair, pa_seeds):
        names = ["user-matching", "common-neighbors", "degree-sequence"]
        ref = compare_matchers(pa_pair, pa_seeds, names, backend="native")
        csr = compare_matchers(pa_pair, pa_seeds, names, backend="csr")
        for a, b in zip(ref, csr):
            assert a.result.links == b.result.links
            assert a.params["matcher"] == b.params["matcher"]
