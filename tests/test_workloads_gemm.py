"""Tests for the GEMM variants of Table 6."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import WorkloadError
from repro.gpu.spec import A100_SPEC, TENSOR_PIPES, Pipe
from repro.workloads.gemm import GEMM_VARIANTS, GemmShape, all_gemm_kernels, gemm_iterations, gemm_kernel

#: Table 6 names, exactly as listed in the paper.
TABLE6_NAMES = {
    "sgemm",
    "dgemm",
    "tdgemm",
    "tf32gemm",
    "hgemm",
    "fp16gemm",
    "bf16gemm",
    "igemm4",
    "igemm8",
}


class TestGemmShape:
    def test_flops_formula(self):
        shape = GemmShape(128, 256, 512)
        assert shape.flops == 2.0 * 128 * 256 * 512

    def test_bytes_moved_scale_with_dtype(self):
        shape = GemmShape(64, 64, 64)
        assert shape.bytes_moved(8.0, 8.0) == pytest.approx(2 * shape.bytes_moved(4.0, 4.0))

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(WorkloadError):
            GemmShape(0, 64, 64)


class TestVariantCatalogue:
    def test_all_table6_variants_present(self):
        assert set(GEMM_VARIANTS) == TABLE6_NAMES

    def test_tensor_variants_use_tensor_pipes(self):
        for name in ("tdgemm", "tf32gemm", "hgemm", "fp16gemm", "bf16gemm", "igemm4", "igemm8"):
            assert GEMM_VARIANTS[name].pipe in TENSOR_PIPES

    def test_plain_variants_use_cuda_pipes(self):
        assert GEMM_VARIANTS["sgemm"].pipe is Pipe.FP32
        assert GEMM_VARIANTS["dgemm"].pipe is Pipe.FP64

    def test_igemm4_is_faster_than_igemm8(self):
        assert GEMM_VARIANTS["igemm4"].peak_multiplier > GEMM_VARIANTS["igemm8"].peak_multiplier


class TestKernelDerivation:
    def test_unknown_variant_rejected(self):
        with pytest.raises(WorkloadError):
            gemm_kernel("zgemm")

    @pytest.mark.parametrize("name", sorted(TABLE6_NAMES))
    def test_runtimes_are_comparable(self, name):
        """Every variant should land near the common target runtime."""
        kernel = gemm_kernel(name)
        assert 0.5 < kernel.compute_time_full_s < 1.3

    @pytest.mark.parametrize("name", sorted(TABLE6_NAMES))
    def test_gemms_are_compute_dominated(self, name):
        kernel = gemm_kernel(name)
        assert kernel.compute_time_full_s > kernel.memory_time_full_s

    def test_iterations_scale_with_pipe_speed(self):
        assert gemm_iterations(GEMM_VARIANTS["hgemm"]) > gemm_iterations(GEMM_VARIANTS["dgemm"])

    def test_tensor_kernels_have_tensor_fraction(self):
        assert gemm_kernel("hgemm").tensor_fraction > 0.8
        assert gemm_kernel("dgemm").tensor_fraction == 0.0

    def test_hgemm_uses_mixed_pipe(self):
        assert gemm_kernel("hgemm").pipe_fractions[Pipe.TENSOR_MIXED] > 0.5

    def test_tdgemm_uses_double_tensor_pipe(self):
        assert gemm_kernel("tdgemm").pipe_fractions[Pipe.TENSOR_DOUBLE] > 0.5

    def test_igemm_uses_int_tensor_pipe(self):
        assert gemm_kernel("igemm8").pipe_fractions[Pipe.TENSOR_INT] > 0.5

    def test_all_gemm_kernels_builds_every_variant(self):
        kernels = all_gemm_kernels()
        assert set(kernels) == TABLE6_NAMES
        for name, kernel in kernels.items():
            assert kernel.name == name

    def test_custom_spec_changes_compute_time(self):
        slower = dataclasses.replace(
            A100_SPEC,
            pipe_tflops={**A100_SPEC.pipe_tflops, Pipe.FP64: A100_SPEC.pipe_tflops[Pipe.FP64] / 2}
        )
        default = gemm_kernel("dgemm")
        scaled = gemm_kernel("dgemm", slower)
        # The iteration count is also halved, so the runtime stays near the
        # target; the per-iteration cost doubles.
        assert gemm_iterations(GEMM_VARIANTS["dgemm"], slower) < gemm_iterations(
            GEMM_VARIANTS["dgemm"], A100_SPEC
        )
        assert scaled.compute_time_full_s == pytest.approx(default.compute_time_full_s, rel=0.3)
