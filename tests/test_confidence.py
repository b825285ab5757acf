"""Tests for confidence intervals (Definition 10) and the normal quantile."""

import pytest
from scipy import stats as scipy_stats

from repro.reachability.confidence import (
    ConfidenceInterval,
    normal_confidence_interval,
    standard_normal_quantile,
    wilson_confidence_interval,
)


class TestNormalQuantile:
    @pytest.mark.parametrize("p", [0.005, 0.025, 0.05, 0.25, 0.5, 0.75, 0.95, 0.975, 0.995])
    def test_matches_scipy(self, p):
        assert standard_normal_quantile(p) == pytest.approx(scipy_stats.norm.ppf(p), abs=1e-6)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            standard_normal_quantile(0.0)
        with pytest.raises(ValueError):
            standard_normal_quantile(1.0)


class TestIntervals:
    def test_normal_interval_contains_estimate(self):
        interval = normal_confidence_interval(40, 100, alpha=0.01)
        assert interval.lower <= 0.4 <= interval.upper
        assert interval.estimate == pytest.approx(0.4)

    def test_interval_shrinks_with_samples(self):
        wide = normal_confidence_interval(40, 100, alpha=0.01)
        narrow = normal_confidence_interval(400, 1000, alpha=0.01)
        assert narrow.width < wide.width

    def test_extreme_fractions_are_clamped(self):
        zero = normal_confidence_interval(0, 50)
        one = normal_confidence_interval(50, 50)
        assert zero.lower == 0.0
        assert one.upper == 1.0

    def test_wilson_interval_is_valid(self):
        interval = wilson_confidence_interval(5, 50, alpha=0.05)
        assert 0.0 <= interval.lower <= interval.estimate <= interval.upper <= 1.0

    def test_wilson_handles_zero_successes(self):
        interval = wilson_confidence_interval(0, 30)
        assert interval.lower == 0.0
        assert interval.upper > 0.0

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            normal_confidence_interval(5, 0)
        with pytest.raises(ValueError):
            normal_confidence_interval(-1, 10)
        with pytest.raises(ValueError):
            normal_confidence_interval(11, 10)

    def test_dominates(self):
        low = ConfidenceInterval(estimate=0.2, lower=0.1, upper=0.3, alpha=0.01)
        high = ConfidenceInterval(estimate=0.8, lower=0.7, upper=0.9, alpha=0.01)
        assert high.dominates(low)
        assert not low.dominates(high)

    def test_contains(self):
        interval = ConfidenceInterval(estimate=0.5, lower=0.4, upper=0.6, alpha=0.01)
        assert interval.contains(0.45)
        assert not interval.contains(0.7)

    def test_inconsistent_interval_rejected(self):
        with pytest.raises(ValueError):
            ConfidenceInterval(estimate=0.9, lower=0.1, upper=0.5, alpha=0.01)

    def test_coverage_of_normal_interval(self):
        """~99% of binomial draws should fall inside their own 99% interval."""
        import numpy as np

        rng = np.random.default_rng(0)
        p_true, n = 0.3, 200
        covered = 0
        trials = 300
        for _ in range(trials):
            successes = int(rng.binomial(n, p_true))
            interval = normal_confidence_interval(successes, n, alpha=0.01)
            if interval.lower <= p_true <= interval.upper:
                covered += 1
        assert covered / trials >= 0.95

