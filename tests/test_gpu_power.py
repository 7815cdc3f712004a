"""Tests for the chip power model and the power-cap governor."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.gpu.power import InstanceLoad, PowerModel
from repro.gpu.spec import A100_SPEC
from solve_oracle import total_power


@pytest.fixture()
def power_model():
    return PowerModel(A100_SPEC)


def full_tensor_load(n_gpcs: int = 8) -> InstanceLoad:
    return InstanceLoad(
        n_gpcs=n_gpcs, cuda_utilization=0.1, tensor_utilization=0.95, dram_bw_fraction=0.2
    )


def memory_load(n_gpcs: int = 8) -> InstanceLoad:
    return InstanceLoad(
        n_gpcs=n_gpcs, cuda_utilization=0.15, tensor_utilization=0.0, dram_bw_fraction=0.95
    )


def chip_power(power_model, loads, frequency, powered_gpcs=A100_SPEC.n_gpcs):
    """``PowerModel.chip_power`` of ``loads``, checked against the reference sum."""
    power = power_model.chip_power(
        [dataclasses.astuple(load) for load in loads], frequency, powered_gpcs
    )
    assert power == total_power(power_model, loads, frequency, powered_gpcs)
    return power


def power_of(power_model, loads):
    """The governor's power function for loads that do not move with the clock."""
    return lambda frequency: chip_power(power_model, loads, frequency)


class TestInstanceLoad:
    def test_valid_load(self):
        load = InstanceLoad(4, 0.5, 0.0, 0.3)
        assert load.n_gpcs == 4

    def test_rejects_zero_gpcs(self):
        with pytest.raises(ConfigurationError):
            InstanceLoad(0, 0.5, 0.0, 0.3)

    def test_rejects_out_of_range_utilization(self):
        with pytest.raises(ConfigurationError):
            InstanceLoad(4, 1.5, 0.0, 0.3)
        with pytest.raises(ConfigurationError):
            InstanceLoad(4, 0.5, -0.2, 0.3)


class TestChipPower:
    def test_idle_power_is_positive_but_modest(self, power_model):
        idle = chip_power(power_model, [], A100_SPEC.min_relative_frequency)
        assert 0 < idle < 150

    def test_tensor_load_draws_more_than_memory_load(self, power_model):
        tensor = chip_power(power_model, [full_tensor_load()], 1.0)
        memory = chip_power(power_model, [memory_load()], 1.0)
        assert tensor > memory

    def test_power_increases_with_frequency(self, power_model):
        low = chip_power(power_model, [full_tensor_load()], 0.5)
        high = chip_power(power_model, [full_tensor_load()], 1.0)
        assert high > low

    def test_power_increases_with_gpcs(self, power_model):
        small = chip_power(power_model, [full_tensor_load(2)], 1.0)
        large = chip_power(power_model, [full_tensor_load(7)], 1.0)
        assert large > small

    def test_multi_instance_loads_accumulate(self, power_model):
        single = chip_power(power_model, [full_tensor_load(4)], 1.0)
        both = chip_power(power_model, [full_tensor_load(4), memory_load(3)], 1.0)
        assert both > single

    def test_rejects_more_busy_than_powered_gpcs(self, power_model):
        with pytest.raises(ConfigurationError):
            power_model.chip_power([(8, 0.1, 0.9, 0.2)], 1.0, 7)

    def test_rejects_invalid_powered_gpcs(self, power_model):
        with pytest.raises(ConfigurationError):
            power_model.chip_power([], 1.0, 0)

    @pytest.mark.parametrize(
        "loads",
        [
            [],
            [full_tensor_load()],
            [memory_load()],
            [full_tensor_load(4), memory_load(3)],
            # Their bandwidth fractions sum past 1 and are clamped.
            [memory_load(2), memory_load(2), full_tensor_load(3)],
        ],
    )
    def test_chip_power_is_the_reference_total_bit_for_bit(self, power_model, loads):
        busy = sum(load.n_gpcs for load in loads)
        for frequency in (A100_SPEC.min_relative_frequency, 0.73, 1.0):
            for powered in sorted({max(busy, 1), A100_SPEC.n_gpcs}):
                # The helper asserts equality with the reference sum.
                chip_power(power_model, loads, frequency, powered)

    @pytest.mark.parametrize(
        "load", [(0, 0.5, 0.0, 0.3), (4, 1.5, 0.0, 0.3), (4, 0.5, -0.2, 0.3), (4, 0.5, 0.0, 1.2)]
    )
    def test_chip_power_checks_each_load_as_instance_load_does(self, power_model, load):
        with pytest.raises(ConfigurationError) as expected:
            InstanceLoad(*load)
        with pytest.raises(ConfigurationError) as got:
            power_model.chip_power([load], 1.0, 8)
        assert str(got.value) == str(expected.value)

    def test_full_tensor_chip_exceeds_default_limit(self, power_model):
        """A fully-lit Tensor-Core workload must be power-limited at 250 W."""
        power = chip_power(power_model, [full_tensor_load()], 1.0)
        assert power > A100_SPEC.default_power_limit_w


class TestGovernor:
    def test_high_cap_allows_full_clock(self, power_model):
        f = power_model.max_frequency_under_cap(
            power_of(power_model, [memory_load()]), A100_SPEC.max_power_cap_w
        )
        assert f == pytest.approx(1.0)

    def test_low_cap_throttles_tensor_load(self, power_model):
        f = power_model.max_frequency_under_cap(
            power_of(power_model, [full_tensor_load()]), 150.0
        )
        assert f < 0.9

    def test_memory_load_not_throttled_at_150w(self, power_model):
        f = power_model.max_frequency_under_cap(power_of(power_model, [memory_load()]), 150.0)
        assert f > 0.9

    def test_selected_frequency_honours_cap(self, power_model):
        cap = 170.0
        loads = [full_tensor_load()]
        f = power_model.max_frequency_under_cap(power_of(power_model, loads), cap)
        assert chip_power(power_model, loads, f) <= cap + 1e-6

    def test_lower_cap_means_lower_frequency(self, power_model):
        power = power_of(power_model, [full_tensor_load()])
        f150 = power_model.max_frequency_under_cap(power, 150.0)
        f250 = power_model.max_frequency_under_cap(power, 250.0)
        assert f150 < f250

    def test_governor_never_goes_below_min_clock(self, power_model):
        heavy = [full_tensor_load()]
        f = power_model.max_frequency_under_cap(
            power_of(power_model, heavy), A100_SPEC.min_power_cap_w
        )
        assert f >= A100_SPEC.min_relative_frequency - 1e-9

    def test_governor_validates_cap(self, power_model):
        from repro.errors import PowerCapError

        with pytest.raises(PowerCapError):
            power_model.max_frequency_under_cap(power_of(power_model, [memory_load()]), 10.0)
