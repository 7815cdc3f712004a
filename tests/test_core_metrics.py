"""Tests for the throughput / fairness metrics and the error statistics."""

from __future__ import annotations

import pytest

from repro.core.metrics import (
    fairness,
    geometric_mean,
    mean_absolute_percentage_error,
    relative_error,
    weighted_speedup,
)
from repro.errors import ConfigurationError


class TestWeightedSpeedup:
    def test_sum_of_relative_performances(self):
        assert weighted_speedup([0.6, 0.7]) == pytest.approx(1.3)

    def test_single_application(self):
        assert weighted_speedup([0.8]) == pytest.approx(0.8)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            weighted_speedup([])

    def test_above_one_means_better_than_time_sharing(self):
        assert weighted_speedup([0.55, 0.55]) > 1.0


class TestFairness:
    def test_minimum(self):
        assert fairness([0.6, 0.3, 0.9]) == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            fairness([])


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_identity_on_constant_sequence(self):
        assert geometric_mean([1.3, 1.3, 1.3]) == pytest.approx(1.3)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            geometric_mean([])

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            geometric_mean([1.0, 0.0])

    def test_never_exceeds_max(self):
        values = [0.8, 1.1, 1.4]
        assert min(values) <= geometric_mean(values) <= max(values)


class TestErrorStatistics:
    def test_relative_error(self):
        assert relative_error(1.1, 1.0) == pytest.approx(0.1)
        assert relative_error(0.9, 1.0) == pytest.approx(0.1)

    def test_relative_error_zero_measurement(self):
        with pytest.raises(ConfigurationError):
            relative_error(1.0, 0.0)

    def test_mape(self):
        assert mean_absolute_percentage_error([1.1, 0.9], [1.0, 1.0]) == pytest.approx(10.0)

    def test_mape_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            mean_absolute_percentage_error([1.0], [1.0, 2.0])

    def test_mape_empty(self):
        with pytest.raises(ConfigurationError):
            mean_absolute_percentage_error([], [])
