"""Tests for the DVFS model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.gpu.clocks import DVFSModel
from repro.gpu.spec import A100_SPEC


@pytest.fixture()
def dvfs():
    return DVFSModel(A100_SPEC)


class TestConversions:
    def test_invalid_relative_rejected(self, dvfs):
        with pytest.raises(ConfigurationError):
            dvfs.dynamic_power_scale(1.5)


class TestScaling:
    def test_dynamic_power_scale_at_boost_is_one(self, dvfs):
        assert dvfs.dynamic_power_scale(1.0) == pytest.approx(1.0)

    def test_dynamic_power_scale_is_superlinear(self, dvfs):
        assert dvfs.dynamic_power_scale(0.5) < 0.5

    def test_dynamic_power_scale_monotonic(self, dvfs):
        values = [dvfs.dynamic_power_scale(f) for f in (0.4, 0.6, 0.8, 1.0)]
        assert values == sorted(values)


class TestQuantization:
    def test_quantize_never_exceeds_input(self, dvfs):
        for value in (0.35, 0.51, 0.77, 0.99, 1.0):
            assert dvfs.quantize(value) <= value + 1e-9

    def test_quantize_respects_minimum(self, dvfs):
        minimum = A100_SPEC.min_relative_frequency
        assert dvfs.quantize(minimum) >= minimum - 1e-9

    def test_quantize_of_one_is_one(self, dvfs):
        assert dvfs.quantize(1.0) == pytest.approx(1.0)

    def test_quantized_clocks_lie_on_the_step_ladder(self, dvfs):
        spec = A100_SPEC
        for percent in range(1, 101):
            relative = dvfs.quantize(percent / 100)
            assert spec.min_relative_frequency - 1e-9 <= relative <= 1.0
            ghz = relative * spec.max_clock_ghz
            steps = ghz / spec.clock_step_ghz
            assert ghz == pytest.approx(spec.min_clock_ghz) or steps == pytest.approx(round(steps))

    def test_quantize_is_monotone(self, dvfs):
        values = [dvfs.quantize(percent / 100) for percent in range(1, 101)]
        assert values == sorted(values)

    def test_out_of_range_relative_rejected(self, dvfs):
        for relative in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError):
                dvfs.quantize(relative)
