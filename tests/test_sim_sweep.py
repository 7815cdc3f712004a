"""Tests for the sweep helpers."""

from __future__ import annotations

from repro.config import SCALABILITY_GPC_COUNTS
from repro.gpu.mig import CORUN_STATES, MemoryOption
from repro.sim.sweep import scalability_power_sweep, scalability_sweep
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
    """The training sweep's co-run grid runs through ``co_run_batch``."""

    def test_grid_shape(self, sim):
        kernels = list(corun_pair("CI-US2").kernels())
        grid = [(state, cap) for state in CORUN_STATES for cap in (150, 250)]
        results = sim.co_run_batch([(kernels, state, cap) for state, cap in grid])
        assert len(results) == len(CORUN_STATES) * 2
        for (state, cap), result in zip(grid, results):
            assert result.state.key() == state.key()
            assert result.power_cap_w == cap

    def test_results_are_corun_results(self, sim):
        kernels = list(corun_pair("CI-US2").kernels())
        (result,) = sim.co_run_batch([(kernels, CORUN_STATES[0], 250)])
        assert result.n_apps == 2
        assert result.weighted_speedup > 0
