"""Unit tests for MatcherConfig validation."""

import pytest

from repro.core.config import MatcherConfig, TiePolicy
from repro.errors import MatcherConfigError


class TestMatcherConfig:
    def test_defaults(self):
        cfg = MatcherConfig()
        assert cfg.threshold == 2
        assert cfg.iterations == 1
        assert cfg.use_degree_buckets is True
        assert cfg.min_bucket_exponent == 1
        assert cfg.tie_policy is TiePolicy.SKIP

    def test_frozen(self):
        cfg = MatcherConfig()
        with pytest.raises(AttributeError):
            cfg.threshold = 5

    @pytest.mark.parametrize("threshold", [0, -1, 1.5, "2"])
    def test_invalid_threshold(self, threshold):
        with pytest.raises(MatcherConfigError):
            MatcherConfig(threshold=threshold)

    @pytest.mark.parametrize("iterations", [0, -2, 0.5])
    def test_invalid_iterations(self, iterations):
        with pytest.raises(MatcherConfigError):
            MatcherConfig(iterations=iterations)

    def test_invalid_max_degree(self):
        with pytest.raises(MatcherConfigError):
            MatcherConfig(max_degree=0)

    def test_none_max_degree_ok(self):
        assert MatcherConfig(max_degree=None).max_degree is None

    def test_invalid_min_bucket(self):
        with pytest.raises(MatcherConfigError):
            MatcherConfig(min_bucket_exponent=-1)

    def test_invalid_tie_policy(self):
        with pytest.raises(MatcherConfigError):
            MatcherConfig(tie_policy="skip")

    def test_valid_full_config(self):
        cfg = MatcherConfig(
            threshold=9,
            iterations=3,
            max_degree=128,
            use_degree_buckets=False,
            min_bucket_exponent=0,
            tie_policy=TiePolicy.LOWEST_ID,
        )
        assert cfg.threshold == 9
