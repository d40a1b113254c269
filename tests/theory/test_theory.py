"""Tests for the theory module: bounds and empirical validation of the
paper's witness-count predictions (Section 4.1)."""

import math

import pytest

from repro.core.diagnostics import explain_pair
from repro.generators.erdos_renyi import gnp_graph
from repro.sampling.edge_sampling import independent_copies
from repro.seeds.generators import sample_seeds
from repro.theory.bounds import (
    chernoff_lower_tail,
    chernoff_upper_tail,
    union_bound,
)
from repro.theory.predictions import (
    er_expected_witnesses_correct,
    er_expected_witnesses_wrong,
    er_gap_regime,
    er_large_p_threshold,
    pa_identification_threshold_degree,
    recommended_threshold,
)


class TestBounds:
    def test_chernoff_lower_decreasing_in_mean(self):
        assert chernoff_lower_tail(100, 0.5) < chernoff_lower_tail(10, 0.5)

    def test_chernoff_upper_decreasing_in_delta(self):
        assert chernoff_upper_tail(50, 1.0) < chernoff_upper_tail(50, 0.1)

    def test_chernoff_bounds_at_zero_delta(self):
        assert chernoff_lower_tail(10, 0.0) == 1.0
        assert chernoff_upper_tail(10, 0.0) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            chernoff_lower_tail(-1, 0.5)
        with pytest.raises(ValueError):
            chernoff_lower_tail(1, 2.0)
        with pytest.raises(ValueError):
            chernoff_upper_tail(1, -0.1)

    def test_union_bound_caps_at_one(self):
        assert union_bound(0.2, 10) == 1.0
        assert union_bound(0.001, 10) == pytest.approx(0.01)

    def test_union_bound_invalid(self):
        with pytest.raises(ValueError):
            union_bound(-0.1, 2)
        with pytest.raises(ValueError):
            union_bound(0.1, -2)


class TestPredictionsFormulas:
    def test_correct_exceeds_wrong_by_factor_p(self):
        n, p, s, l = 1000, 0.05, 0.5, 0.1
        correct = er_expected_witnesses_correct(n, p, s, l)
        wrong = er_expected_witnesses_wrong(n, p, s, l)
        assert correct / wrong == pytest.approx((n - 1) / ((n - 2) * p))

    def test_threshold_formula(self):
        n, s, l = 10_000, 0.5, 0.1
        t = er_large_p_threshold(n, s, l)
        assert t == pytest.approx(24 * math.log(n) / (s * s * l * (n - 2)))

    def test_gap_regimes(self):
        n, s, l = 10_000, 0.5, 0.2
        t = er_large_p_threshold(n, s, l)
        assert er_gap_regime(n, 2 * t, s, l) == "concentration"
        assert er_gap_regime(n, t / 2, s, l) == "sparse"

    def test_pa_threshold_degree(self):
        d = pa_identification_threshold_degree(10_000, 0.5, 0.1)
        assert d == pytest.approx(4 * math.log(10_000) ** 2 / (0.25 * 0.1))

    def test_recommended_thresholds(self):
        assert recommended_threshold("er") == 3
        assert recommended_threshold("PA") == 9
        with pytest.raises(ValueError):
            recommended_threshold("unknown")


class TestEmpiricalValidation:
    """Theorem 1's expectations hold empirically on sampled ER copies."""

    @pytest.fixture(scope="class")
    def er_setup(self):
        n, p, s, l = 600, 0.08, 0.7, 0.3
        g = gnp_graph(n, p, seed=21)
        pair = independent_copies(g, s, seed=22)
        seeds = sample_seeds(pair, l, seed=23)
        return n, p, s, l, pair, seeds

    def test_correct_pair_witness_mean(self, er_setup):
        n, p, s, l, pair, seeds = er_setup
        expected = er_expected_witnesses_correct(n, p, s, l)
        sample = [
            explain_pair(pair.g1, pair.g2, seeds, v, v).score
            for v in range(0, n, 7)
            if v not in seeds
        ]
        mean = sum(sample) / len(sample)
        assert abs(mean - expected) < 0.35 * expected

    def test_wrong_pair_witness_mean_below_correct(self, er_setup):
        n, p, s, l, pair, seeds = er_setup
        wrong = [
            explain_pair(pair.g1, pair.g2, seeds, v, (v + 1) % n).score
            for v in range(0, n, 7)
        ]
        correct = [
            explain_pair(pair.g1, pair.g2, seeds, v, v).score
            for v in range(0, n, 7)
        ]
        assert sum(wrong) < 0.4 * sum(correct)
