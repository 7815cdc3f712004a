"""Tests for the GPU hardware specification."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import PowerCapError, SpecificationError
from repro.gpu.spec import (
    A100_SPEC,
    CUDA_PIPES,
    GPU_SPECS,
    TENSOR_PIPES,
    GPUSpec,
    Pipe,
)
from repro.sim.counters import collect_counters
from repro.workloads.kernel import KernelCharacteristics

TENSOR_COUNTERS = ("tensor_mixed", "tensor_double", "tensor_int")


def _tensor_counters_of_a_kernel_on(pipe: Pipe) -> dict[str, float]:
    kernel = KernelCharacteristics(
        name=pipe.value,
        compute_time_full_s=0.8,
        memory_time_full_s=0.3,
        serial_time_s=0.0,
        pipe_fractions={pipe: 1.0},
    )
    counters = collect_counters(kernel)
    return {name: getattr(counters, name) for name in TENSOR_COUNTERS}


class TestPipe:
    def test_tensor_pipes_are_flagged(self):
        # Each Tensor pipe's work shows in its own Table 3 counter only.
        for pipe in TENSOR_PIPES:
            counters = _tensor_counters_of_a_kernel_on(pipe)
            assert counters.pop(pipe.value) == pytest.approx(100.0)
            assert set(counters.values()) == {0.0}

    def test_cuda_pipes_are_not_tensor(self):
        for pipe in CUDA_PIPES:
            assert set(_tensor_counters_of_a_kernel_on(pipe).values()) == {0.0}

    def test_all_pipes_are_covered(self):
        assert set(TENSOR_PIPES) | set(CUDA_PIPES) == set(Pipe)


class TestPipeThroughput:
    def test_positive_throughput_accepted(self):
        spec = dataclasses.replace(
            A100_SPEC, pipe_tflops={**A100_SPEC.pipe_tflops, Pipe.FP32: 39.0}
        )
        assert spec.pipe_tflops[Pipe.FP32] == 39.0

    def test_non_positive_throughput_rejected(self):
        for value in (0.0, -1.0):
            with pytest.raises(SpecificationError, match=r"pipe_tflops\[fp32\]"):
                dataclasses.replace(
                    A100_SPEC, pipe_tflops={**A100_SPEC.pipe_tflops, Pipe.FP32: value}
                )


class TestA100Spec:
    def test_gpc_counts_match_a100(self):
        assert A100_SPEC.n_gpcs == 8
        assert A100_SPEC.mig_gpcs == 7

    def test_memory_slices_match_a100(self):
        assert A100_SPEC.n_mem_slices == 8

    def test_default_power_limit_is_250w(self):
        assert A100_SPEC.default_power_limit_w == 250.0

    def test_relative_frequency_bounds(self):
        assert 0 < A100_SPEC.min_relative_frequency < 1.0

    def test_every_pipe_has_a_throughput(self):
        for pipe in Pipe:
            assert A100_SPEC.pipe_tflops[pipe] > 0

    def test_tensor_mixed_is_fastest_float_pipe(self):
        assert (
            A100_SPEC.pipe_tflops[Pipe.TENSOR_MIXED]
            > A100_SPEC.pipe_tflops[Pipe.FP32]
            > A100_SPEC.pipe_tflops[Pipe.FP64]
        )


class TestDerivedQuantities:
    def test_validate_power_cap_accepts_range(self):
        assert A100_SPEC.validate_power_cap(150.0) == 150.0

    def test_validate_power_cap_rejects_out_of_range(self):
        with pytest.raises(PowerCapError):
            A100_SPEC.validate_power_cap(50.0)
        with pytest.raises(PowerCapError):
            A100_SPEC.validate_power_cap(400.0)


class TestSpecValidation:
    def test_rejects_negative_gpcs(self):
        with pytest.raises(SpecificationError):
            GPUSpec(n_gpcs=0)

    def test_rejects_mig_gpcs_above_total(self):
        with pytest.raises(SpecificationError):
            GPUSpec(mig_gpcs=9)

    def test_rejects_inverted_clocks(self):
        with pytest.raises(SpecificationError):
            GPUSpec(min_clock_ghz=2.0, max_clock_ghz=1.4)

    def test_rejects_inverted_power_caps(self):
        with pytest.raises(SpecificationError):
            GPUSpec(min_power_cap_w=300.0, default_power_limit_w=250.0, max_power_cap_w=280.0)

    def test_rejects_negative_power_constant(self):
        with pytest.raises(SpecificationError):
            GPUSpec(static_power_w=-1.0)

    def test_rejects_missing_pipe(self):
        with pytest.raises(SpecificationError):
            GPUSpec(pipe_tflops={Pipe.FP32: 19.5})

    def test_rejects_low_dvfs_exponent(self):
        with pytest.raises(SpecificationError):
            GPUSpec(dvfs_exponent=0.5)


class TestSpecRegistry:
    def test_builtin_specs_are_registered(self):
        from repro.gpu.spec import A30_SPEC, H100_SPEC, spec_by_name

        assert GPU_SPECS["a100"] is A100_SPEC
        assert spec_by_name("H100") is H100_SPEC
        assert spec_by_name(" a30 ") is A30_SPEC

    def test_unknown_spec_lists_valid_names(self):
        from repro.gpu.spec import spec_by_name

        with pytest.raises(SpecificationError) as excinfo:
            spec_by_name("v100")
        message = str(excinfo.value)
        assert "v100" in message
        assert "a100" in message and "h100" in message and "a30" in message


class TestMIGProfileTable:
    def test_a100_profile_matches_paper_mapping(self):
        from repro.gpu.mig import GPC_TO_MEM_SLICES

        assert dict(A100_SPEC.mig_mem_slices) == dict(GPC_TO_MEM_SLICES)
        assert A100_SPEC.mig_instance_sizes == (1, 2, 3, 4, 7)

    def test_a30_profile_is_coarser(self):
        from repro.gpu.spec import A30_SPEC

        assert A30_SPEC.mig_instance_sizes == (1, 2, 4)
        assert A30_SPEC.instance_mem_slices(4) == A30_SPEC.n_mem_slices

    def test_instance_mem_slices_rejects_unknown_size(self):
        with pytest.raises(SpecificationError):
            A100_SPEC.instance_mem_slices(5)

    def test_smallest_instance_holding(self):
        assert A100_SPEC.smallest_instance_holding(5) == 7
        assert A100_SPEC.smallest_instance_holding(2) == 2
        with pytest.raises(SpecificationError):
            A100_SPEC.smallest_instance_holding(8)

    def test_rejects_inconsistent_profile_table(self):
        with pytest.raises(SpecificationError):
            GPUSpec(mig_instance_sizes=(1, 2), mig_mem_slices={1: 1})
        with pytest.raises(SpecificationError):
            GPUSpec(mig_instance_sizes=(2, 1), mig_mem_slices={1: 1, 2: 2})
        with pytest.raises(SpecificationError):
            GPUSpec(mig_instance_sizes=(1,), mig_mem_slices={1: 99})


class TestChipInventory:
    """GPC and memory-slice inventory of every built-in chip."""

    #: GPCs each chip leaves out of its MIG layout (the A100 and H100 fuse
    #: one off when MIG is enabled; the A30 and MI300X use them all).
    SPARE_GPCS = {"a100": 1, "h100": 1, "a30": 0, "mi300x": 0}

    @pytest.fixture(params=sorted(SPARE_GPCS))
    def spec_name(self, request):
        return request.param

    @pytest.fixture()
    def spec(self, spec_name):
        return GPU_SPECS[spec_name]

    def test_largest_profile_is_the_whole_mig_chip(self, spec, spec_name):
        assert spec.n_gpcs - spec.mig_gpcs == self.SPARE_GPCS[spec_name]
        assert spec.mig_instance_sizes[-1] == spec.mig_gpcs
        assert spec.instance_mem_slices(spec.mig_gpcs) == spec.n_mem_slices

    def test_counts_beyond_the_chip_rejected(self, spec):
        with pytest.raises(SpecificationError):
            spec.instance_mem_slices(spec.mig_gpcs + 1)
        with pytest.raises(SpecificationError):
            spec.smallest_instance_holding(spec.mig_gpcs + 1)

    def test_profile_slices_never_shrink_with_size(self, spec):
        slices = [spec.instance_mem_slices(size) for size in spec.mig_instance_sizes]
        assert slices == sorted(slices)
        assert slices[0] >= 1
        for size in spec.mig_instance_sizes:
            assert spec.smallest_instance_holding(size) == size
