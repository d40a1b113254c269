"""Registry tests + the shared protocol-conformance suite.

Every matcher registered in :mod:`repro.registry` must honor the
:class:`~repro.core.protocol.Matcher` contract: accept
``(g1, g2, seeds)`` plus a ``progress`` keyword and return a
:class:`~repro.core.result.MatchingResult` whose links extend the seeds.
The suite is parametrized over the registry, so adding a matcher
automatically puts it under contract.
"""

import inspect

import pytest

from repro.core.config import DEFAULT_BACKEND, MatcherConfig
from repro.core.protocol import Matcher, ProgressEvent
from repro.core.result import MatchingResult
from repro.errors import MatcherRegistryError
from repro.generators.preferential_attachment import (
    preferential_attachment_graph,
)
from repro.registry import (
    _REGISTRY,
    available_matchers,
    get_entry,
    get_matcher,
    matcher_names,
    register_matcher,
)
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds


@pytest.fixture(scope="module")
def workload():
    graph = preferential_attachment_graph(150, 4, seed=11)
    pair = independent_copies(graph, s1=0.7, seed=12)
    seeds = sample_seeds(pair, 0.15, seed=13)
    return pair, seeds


def backend_of(matcher) -> str:
    """The backend a matcher instance will run on."""
    config = getattr(matcher, "config", None)
    return config.backend if config is not None else matcher.backend


class TestDefaultBackend:
    def test_matcher_config_defaults_to_native(self):
        assert DEFAULT_BACKEND == "native"
        assert MatcherConfig().backend == "native"

    @pytest.mark.parametrize("name", matcher_names())
    def test_matcher_without_backend_runs_default(self, name):
        assert backend_of(get_matcher(name)) == DEFAULT_BACKEND

    @pytest.mark.parametrize(
        "module",
        ["repro.experiments.fig2_pa", "repro.experiments.table2_rmat"],
    )
    def test_driver_without_backend_runs_default(self, module):
        import importlib

        run = importlib.import_module(module).run
        default = inspect.signature(run).parameters["backend"].default
        assert default == DEFAULT_BACKEND


class TestProtocolConformance:
    @pytest.mark.parametrize("name", matcher_names())
    def test_run_returns_matching_result_extending_seeds(self, name, workload):
        pair, seeds = workload
        matcher = get_matcher(name)
        result = matcher.run(pair.g1, pair.g2, seeds)
        assert isinstance(result, MatchingResult)
        assert set(seeds.items()) <= set(result.links.items())
        assert result.seeds == seeds

    @pytest.mark.parametrize("name", matcher_names())
    def test_satisfies_runtime_protocol(self, name):
        assert isinstance(get_matcher(name), Matcher)

    @pytest.mark.parametrize("name", matcher_names())
    def test_progress_callback_receives_events(self, name, workload):
        pair, seeds = workload
        events = []
        get_matcher(name).run(pair.g1, pair.g2, seeds, progress=events.append)
        assert events, f"{name} emitted no progress events"
        for event in events:
            assert isinstance(event, ProgressEvent)
            assert event.step >= 1
            assert event.links_total >= len(seeds)
            assert event.elapsed >= 0.0

    @pytest.mark.parametrize("name", matcher_names())
    def test_output_links_are_one_to_one(self, name, workload):
        pair, seeds = workload
        result = get_matcher(name).run(pair.g1, pair.g2, seeds)
        assert len(set(result.links.values())) == len(result.links)

    @pytest.mark.parametrize("name", matcher_names())
    def test_registered_class_carries_its_name(self, name):
        assert get_entry(name).cls.matcher_name == name


class TestRegistryLookup:
    def test_expected_matchers_present(self):
        assert {
            "user-matching",
            "mapreduce-user-matching",
            "common-neighbors",
            "narayanan-shmatikov",
            "degree-sequence",
            "structural-features",
            "reconciler",
        } <= set(matcher_names())

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(MatcherRegistryError, match="user-matching"):
            get_matcher("definitely-not-registered")

    def test_get_entry_unknown_name(self):
        with pytest.raises(MatcherRegistryError):
            get_entry("definitely-not-registered")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(MatcherRegistryError, match="already"):

            @register_matcher("user-matching")
            class Imposter:
                def run(self, g1, g2, seeds, *, progress=None):
                    raise NotImplementedError

    def test_registration_and_description_default(self):
        try:

            @register_matcher("test-only-matcher")
            class TestOnly:
                """One-line summary becomes the description.

                Body text must not leak into it.
                """

                def run(self, g1, g2, seeds, *, progress=None):
                    return MatchingResult(links=dict(seeds), seeds=dict(seeds))

            assert "test-only-matcher" in matcher_names()
            assert (
                available_matchers()["test-only-matcher"]
                == "One-line summary becomes the description."
            )
            assert isinstance(get_matcher("test-only-matcher"), TestOnly)
        finally:
            _REGISTRY.pop("test-only-matcher", None)

    def test_config_kwargs_reach_the_matcher(self):
        um = get_matcher("user-matching", threshold=3, iterations=2)
        assert um.config.threshold == 3
        assert um.config.iterations == 2
        cn = get_matcher("common-neighbors", threshold=2)
        assert cn.config.threshold == 2
        mr = get_matcher("mapreduce-user-matching", threshold=4)
        assert mr.config.threshold == 4

    def test_from_params_rejects_config_plus_kwargs(self):
        from repro.core.config import MatcherConfig
        from repro.core.matcher import UserMatching
        from repro.errors import MatcherConfigError

        with pytest.raises(MatcherConfigError):
            UserMatching.from_params(config=MatcherConfig(), threshold=3)


class TestCompareMatchers:
    def test_labels_rows_and_shares_workload(self, workload):
        from repro.evaluation import compare_matchers

        pair, seeds = workload
        trials = compare_matchers(
            pair,
            seeds,
            ["user-matching", "common-neighbors"],
            params={"s": 0.7},
        )
        assert [t.params["matcher"] for t in trials] == [
            "user-matching",
            "common-neighbors",
        ]
        assert all(t.params["s"] == 0.7 for t in trials)

    def test_matcher_label_survives_params_collision(self, workload):
        from repro.evaluation import compare_matchers

        pair, seeds = workload
        trials = compare_matchers(
            pair,
            seeds,
            ["user-matching", "degree-sequence"],
            params={"matcher": "overridden"},
        )
        assert [t.params["matcher"] for t in trials] == [
            "user-matching",
            "degree-sequence",
        ]

    def test_instances_labeled_by_registry_name(self, workload):
        from repro.core.reconciler import Reconciler
        from repro.evaluation import compare_matchers

        pair, seeds = workload
        trials = compare_matchers(pair, seeds, [Reconciler()])
        assert trials[0].params["matcher"] == "reconciler"
