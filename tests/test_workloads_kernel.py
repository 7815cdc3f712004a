"""Tests for the analytic kernel model."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.gpu.spec import Pipe
from repro.workloads.kernel import KernelCharacteristics, WorkloadClass


def make_kernel(**overrides) -> KernelCharacteristics:
    base = dict(
        name="toy",
        compute_time_full_s=0.8,
        memory_time_full_s=0.3,
        serial_time_s=0.02,
        pipe_fractions={Pipe.FP32: 1.0},
        l2_hit_rate=0.6,
        occupancy=0.5,
        working_set_mb=50.0,
        l2_sensitivity=0.4,
    )
    base.update(overrides)
    return KernelCharacteristics(**base)


class TestValidation:
    def test_valid_kernel(self):
        kernel = make_kernel()
        assert kernel.name == "toy"

    def test_empty_name_rejected(self):
        with pytest.raises(WorkloadError):
            make_kernel(name="")

    def test_negative_time_rejected(self):
        with pytest.raises(WorkloadError):
            make_kernel(compute_time_full_s=-1.0)

    def test_all_zero_times_rejected(self):
        with pytest.raises(WorkloadError):
            make_kernel(compute_time_full_s=0.0, memory_time_full_s=0.0, serial_time_s=0.0)

    def test_pipe_fractions_must_sum_to_one(self):
        with pytest.raises(WorkloadError):
            make_kernel(pipe_fractions={Pipe.FP32: 0.5, Pipe.FP64: 0.2})

    def test_negative_pipe_fraction_rejected(self):
        with pytest.raises(WorkloadError):
            make_kernel(pipe_fractions={Pipe.FP32: 1.2, Pipe.FP64: -0.2})

    def test_out_of_range_l2_hit_rejected(self):
        with pytest.raises(WorkloadError):
            make_kernel(l2_hit_rate=1.5)

    def test_out_of_range_occupancy_rejected(self):
        with pytest.raises(WorkloadError):
            make_kernel(occupancy=-0.1)

    def test_nan_time_rejected(self):
        with pytest.raises(WorkloadError):
            make_kernel(memory_time_full_s=float("nan"))

    def test_numeric_fields_become_python_floats(self):
        # The engine's batched solve relies on plain floats.
        kernel = make_kernel(
            compute_time_full_s=np.float64(0.8),
            memory_time_full_s=np.float32(0.25),
            serial_time_s=0,
            working_set_mb=np.int64(50),
            l2_hit_rate=np.float64(0.6),
            occupancy=1,
            l2_sensitivity=np.float64(0.4),
        )
        for name in (
            "compute_time_full_s", "memory_time_full_s", "serial_time_s", "working_set_mb",
            "l2_hit_rate", "occupancy", "l2_sensitivity",
        ):
            assert type(getattr(kernel, name)) is float, name
        assert kernel.compute_time_full_s == 0.8
        assert kernel.memory_time_full_s == float(np.float32(0.25))


class TestDerivedProperties:
    def test_reference_time_is_roofline_plus_serial(self):
        kernel = make_kernel()
        assert kernel.reference_time_s == pytest.approx(0.8 + 0.02)

    def test_reference_time_memory_bound(self):
        kernel = make_kernel(compute_time_full_s=0.1, memory_time_full_s=0.9)
        assert kernel.reference_time_s == pytest.approx(0.9 + 0.02)

    def test_cuda_and_tensor_fractions(self):
        kernel = make_kernel(pipe_fractions={Pipe.TENSOR_MIXED: 0.9, Pipe.FP32: 0.1})
        assert kernel.tensor_fraction == pytest.approx(0.9)
        assert kernel.cuda_fraction == pytest.approx(0.1)
        assert kernel.uses_tensor_cores

    def test_pure_cuda_kernel_does_not_use_tensor(self):
        assert not make_kernel().uses_tensor_cores

    def test_compute_memory_ratio(self):
        kernel = make_kernel()
        assert kernel.compute_memory_ratio == pytest.approx(0.8 / 0.3)

    def test_compute_memory_ratio_without_memory(self):
        kernel = make_kernel(memory_time_full_s=0.0)
        assert math.isinf(kernel.compute_memory_ratio)

    def test_serial_fraction(self):
        # With no compute or memory work the reference time is all serial.
        kernel = make_kernel(compute_time_full_s=0.0, memory_time_full_s=0.0, serial_time_s=1.0,
                             pipe_fractions={})
        assert kernel.serial_time_s / kernel.reference_time_s == pytest.approx(1.0)


class TestTransformations:
    def test_scaled_multiplies_all_times(self):
        scaled = make_kernel().scaled(2.0)
        assert scaled.compute_time_full_s == pytest.approx(1.6)
        assert scaled.memory_time_full_s == pytest.approx(0.6)
        assert scaled.serial_time_s == pytest.approx(0.04)

    def test_scaled_rejects_non_positive(self):
        with pytest.raises(WorkloadError):
            make_kernel().scaled(0.0)

    def test_summary_mentions_name(self):
        assert "toy" in make_kernel().summary()

    def test_with_name(self):
        # dataclasses.replace is the renaming tool; the copy re-signs itself.
        renamed = dataclasses.replace(make_kernel(), name="other")
        assert renamed.name == "other"
        assert renamed.compute_time_full_s == make_kernel().compute_time_full_s
        assert renamed.signature == ("other", *make_kernel().signature[1:])


class TestSignature:
    """The snapshot the engine's run and reference-time memos key on."""

    def test_signature_is_the_solve_field_snapshot(self):
        kernel = make_kernel(pipe_fractions={Pipe.TENSOR_INT: 0.7, Pipe.FP32: 0.3})
        assert kernel.signature == (
            kernel.name,
            kernel.compute_time_full_s,
            kernel.memory_time_full_s,
            kernel.serial_time_s,
            tuple(sorted(kernel.pipe_fractions.items())),
            kernel.l2_hit_rate,
            kernel.occupancy,
            kernel.working_set_mb,
            kernel.l2_sensitivity,
        )
        assert hash(kernel.signature) == hash(kernel.signature)

    def test_signature_survives_replace_copy_and_pickle(self):
        kernel = make_kernel()
        changed = dataclasses.replace(kernel, l2_hit_rate=0.9)
        assert changed.signature == make_kernel(l2_hit_rate=0.9).signature
        assert changed.signature != kernel.signature
        for clone in (
            dataclasses.replace(kernel),
            copy.copy(kernel),
            copy.deepcopy(kernel),
            pickle.loads(pickle.dumps(kernel)),
        ):
            assert clone.signature == kernel.signature

    def test_equal_but_distinct_kernels_get_equal_signatures(self):
        first, second = make_kernel(), make_kernel()
        assert first is not second and first == second
        assert first.signature == second.signature


class TestWorkloadClassEnum:
    def test_four_classes(self):
        assert {c.value for c in WorkloadClass} == {"TI", "CI", "MI", "US"}
