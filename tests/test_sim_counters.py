"""Tests for the simulated profiler (Table 3 counters)."""

from __future__ import annotations

import pytest

from repro.sim.counters import CounterVector, collect_counters
from repro.workloads.suite import DEFAULT_SUITE


class TestCounterVector:
    def test_field_order_matches_table3(self):
        assert CounterVector.FIELD_ORDER == (
            "compute_throughput",
            "memory_throughput",
            "dram_throughput",
            "l2_hit_rate",
            "occupancy",
            "tensor_mixed",
            "tensor_double",
            "tensor_int",
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CounterVector(120.0, 10, 10, 10, 10, 0, 0, 0)
        with pytest.raises(ValueError):
            CounterVector(-1.0, 10, 10, 10, 10, 0, 0, 0)

    def test_as_array_follows_field_order(self):
        vector = CounterVector(90, 40, 30, 60, 50, 70, 0, 0)
        assert vector.as_array().tolist() == [90, 40, 30, 60, 50, 70, 0, 0]


class TestCollectCounters:
    def test_counters_in_range_for_every_benchmark(self):
        for name in DEFAULT_SUITE.names():
            counters = collect_counters(DEFAULT_SUITE.get(name))
            for value in counters.as_array():
                assert 0.0 <= value <= 100.0

    def test_compute_intensive_kernel_has_high_compute_throughput(self):
        counters = collect_counters(DEFAULT_SUITE.get("dgemm"))
        assert counters.compute_throughput > 80
        assert counters.compute_throughput > counters.memory_throughput

    def test_memory_intensive_kernel_has_high_memory_throughput(self):
        counters = collect_counters(DEFAULT_SUITE.get("stream"))
        assert counters.dram_throughput > 80
        assert counters.memory_throughput > counters.compute_throughput

    def test_unscalable_kernel_has_low_everything(self):
        counters = collect_counters(DEFAULT_SUITE.get("kmeans"))
        assert counters.compute_throughput < 10
        assert counters.dram_throughput < 10

    def test_tensor_counters_only_for_tensor_kernels(self):
        hgemm = collect_counters(DEFAULT_SUITE.get("hgemm"))
        dgemm = collect_counters(DEFAULT_SUITE.get("dgemm"))
        assert hgemm.tensor_mixed > 50
        assert (dgemm.tensor_mixed, dgemm.tensor_double, dgemm.tensor_int) == (0, 0, 0)

    def test_tensor_pipe_matches_variant(self):
        assert collect_counters(DEFAULT_SUITE.get("tdgemm")).tensor_double > 50
        assert collect_counters(DEFAULT_SUITE.get("igemm8")).tensor_int > 50

    def test_l2_and_occupancy_reflect_kernel_model(self):
        kernel = DEFAULT_SUITE.get("srad")
        counters = collect_counters(kernel)
        assert counters.l2_hit_rate == pytest.approx(100 * kernel.l2_hit_rate)
        assert counters.occupancy == pytest.approx(100 * kernel.occupancy)

    def test_profiling_is_deterministic(self):
        kernel = DEFAULT_SUITE.get("lud")
        assert collect_counters(kernel) == collect_counters(kernel)
