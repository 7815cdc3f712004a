"""Tests for the Rodinia/micro kernels and the benchmark-suite registry."""

from __future__ import annotations

import pytest

from repro.errors import UnknownKernelError, WorkloadError
from repro.workloads.classification import EXPECTED_CLASSIFICATION
from repro.workloads.kernel import KernelCharacteristics
from repro.workloads.micro import micro_kernels
from repro.workloads.rodinia import rodinia_kernels
from repro.workloads.suite import BenchmarkSuite, DEFAULT_SUITE, build_default_suite


class TestRodiniaKernels:
    def test_all_table7_rodinia_benchmarks_present(self):
        names = set(rodinia_kernels())
        expected = {
            "hotspot", "lavaMD", "srad", "heartwell",
            "gaussian", "leukocyte", "lud",
            "backprop", "bfs", "dwt2d", "kmeans", "needle", "pathfinder",
        }
        assert expected == names

    def test_unscalable_kernels_are_serial_dominated(self):
        for name in ("backprop", "bfs", "dwt2d", "kmeans", "needle", "pathfinder"):
            kernel = rodinia_kernels()[name]
            assert kernel.serial_time_s / kernel.reference_time_s > 0.9

    def test_memory_intensive_kernels_are_memory_dominated(self):
        for name in ("gaussian", "leukocyte", "lud"):
            kernel = rodinia_kernels()[name]
            assert kernel.memory_time_full_s > kernel.compute_time_full_s

    def test_compute_intensive_kernels_are_compute_dominated(self):
        for name in ("hotspot", "lavaMD", "srad", "heartwell"):
            kernel = rodinia_kernels()[name]
            assert kernel.compute_time_full_s > kernel.memory_time_full_s

    def test_no_rodinia_kernel_uses_tensor_cores(self):
        for kernel in rodinia_kernels().values():
            assert not kernel.uses_tensor_cores


class TestMicroKernels:
    def test_stream_and_randomaccess_present(self):
        assert set(micro_kernels()) == {"stream", "randomaccess"}

    def test_micro_kernels_are_memory_bound(self):
        for kernel in micro_kernels().values():
            assert kernel.memory_time_full_s > kernel.compute_time_full_s

    def test_stream_has_negligible_cache_reuse(self):
        assert micro_kernels()["stream"].l2_hit_rate < 0.1


class TestDefaultSuite:
    def test_contains_all_classified_benchmarks(self):
        for name in EXPECTED_CLASSIFICATION:
            assert name in DEFAULT_SUITE

    def test_has_24_benchmarks(self):
        assert len(DEFAULT_SUITE) == 24

    def test_get_returns_kernel(self):
        kernel = DEFAULT_SUITE.get("stream")
        assert isinstance(kernel, KernelCharacteristics)
        assert kernel.name == "stream"

    def test_get_unknown_raises(self):
        with pytest.raises(UnknownKernelError):
            DEFAULT_SUITE.get("does-not-exist")

    def test_names_sorted(self):
        assert list(DEFAULT_SUITE.names()) == sorted(DEFAULT_SUITE.names())

    def test_iteration_matches_names(self):
        assert tuple(iter(DEFAULT_SUITE)) == DEFAULT_SUITE.names()

    def test_subset(self):
        subset = DEFAULT_SUITE.subset(["stream", "dgemm"])
        assert len(subset) == 2
        assert "kmeans" not in subset

    def test_build_default_suite_is_fresh(self):
        fresh = build_default_suite()
        assert fresh.names() == DEFAULT_SUITE.names()
        assert fresh is not DEFAULT_SUITE


class TestSuiteMutation:
    def test_register_rejects_duplicates(self):
        suite = BenchmarkSuite("test")
        kernel = DEFAULT_SUITE.get("stream")
        suite.register(kernel)
        with pytest.raises(WorkloadError):
            suite.register(kernel)

    def test_register_overwrite(self):
        suite = BenchmarkSuite("test")
        kernel = DEFAULT_SUITE.get("stream")
        suite.register(kernel)
        suite.register(kernel.scaled(2.0), overwrite=True)
        assert suite.get("stream").memory_time_full_s == pytest.approx(
            kernel.memory_time_full_s * 2
        )

    def test_register_all(self):
        suite = BenchmarkSuite("test")
        suite.register_all(micro_kernels().values())
        assert len(suite) == 2
