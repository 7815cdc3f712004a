"""Tests for the sweep helpers."""

from __future__ import annotations

import pytest

from repro.config import SCALABILITY_GPC_COUNTS
from repro.gpu.mig import CORUN_STATES, MemoryOption
from repro.sim.sweep import (
    corun_sweep,
    scalability_power_sweep,
    scalability_sweep,
)
from repro.workloads.pairs import corun_pair
from repro.workloads.suite import DEFAULT_SUITE


class TestScalabilitySweep:
    def test_covers_both_options_and_all_sizes(self, sim):
        points = scalability_sweep(sim, DEFAULT_SUITE.get("dgemm"))
        assert len(points) == 2 * 5
        assert {p.option for p in points} == {MemoryOption.PRIVATE, MemoryOption.SHARED}
        assert {p.gpcs for p in points} == {1, 2, 3, 4, 7}

    def test_points_carry_power_cap(self, sim):
        points = scalability_sweep(sim, DEFAULT_SUITE.get("dgemm"), power_cap_w=190)
        assert all(p.power_cap_w == 190 for p in points)

    def test_custom_gpc_counts(self, sim):
        points = scalability_sweep(sim, DEFAULT_SUITE.get("stream"), gpc_counts=(1, 7))
        assert {p.gpcs for p in points} == {1, 7}

    def test_points_run_option_by_option_in_gpc_order(self, sim):
        # The order the CLI's scalability table prints them in.
        points = scalability_sweep(sim, DEFAULT_SUITE.get("stream"))
        assert [(p.option, p.gpcs) for p in points] == [
            (option, gpcs)
            for option in (MemoryOption.PRIVATE, MemoryOption.SHARED)
            for gpcs in SCALABILITY_GPC_COUNTS
        ]


class TestPowerSweep:
    def test_covers_all_caps(self, sim):
        points = scalability_power_sweep(sim, DEFAULT_SUITE.get("hgemm"), power_caps=(150, 250))
        assert {p.power_cap_w for p in points} == {150, 250}
        assert all(p.option is MemoryOption.SHARED for p in points)

    def test_points_run_cap_by_cap_in_gpc_order(self, sim):
        points = scalability_power_sweep(sim, DEFAULT_SUITE.get("hgemm"), power_caps=(150, 250))
        assert [(p.power_cap_w, p.gpcs) for p in points] == [
            (cap, gpcs) for cap in (150, 250) for gpcs in SCALABILITY_GPC_COUNTS
        ]


class TestCoRunSweep:
    def test_grid_shape(self, sim):
        kernels = list(corun_pair("CI-US2").kernels())
        grid = corun_sweep(sim, kernels, power_caps=(150, 250))
        assert len(grid) == len(CORUN_STATES) * 2
        for (state_key, cap), result in grid.items():
            assert result.state.key() == state_key
            assert result.power_cap_w == cap

    def test_results_are_corun_results(self, sim):
        kernels = list(corun_pair("CI-US2").kernels())
        grid = corun_sweep(sim, kernels, states=(CORUN_STATES[0],), power_caps=(250,))
        result = next(iter(grid.values()))
        assert result.n_apps == 2
        assert result.weighted_speedup > 0
