"""Property-based tests for the kernel model and its invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.spec import Pipe
from repro.workloads.kernel import KernelCharacteristics


def kernels(min_time: float = 1e-3, max_time: float = 5.0) -> st.SearchStrategy[KernelCharacteristics]:
    """Strategy producing arbitrary-but-valid kernel models."""
    tensor_fraction = st.floats(min_value=0.0, max_value=1.0)

    @st.composite
    def build(draw):
        tensor = draw(tensor_fraction)
        pipe_fractions = (
            {Pipe.TENSOR_MIXED: tensor, Pipe.FP32: 1.0 - tensor}
            if 0.0 < tensor < 1.0
            else ({Pipe.TENSOR_MIXED: 1.0} if tensor == 1.0 else {Pipe.FP32: 1.0})
        )
        return KernelCharacteristics(
            name=draw(st.text(alphabet="abcdefgh", min_size=1, max_size=8)),
            compute_time_full_s=draw(st.floats(min_value=min_time, max_value=max_time)),
            memory_time_full_s=draw(st.floats(min_value=min_time, max_value=max_time)),
            serial_time_s=draw(st.floats(min_value=0.0, max_value=max_time)),
            pipe_fractions=pipe_fractions,
            l2_hit_rate=draw(st.floats(min_value=0.0, max_value=1.0)),
            occupancy=draw(st.floats(min_value=0.0, max_value=1.0)),
            working_set_mb=draw(st.floats(min_value=1.0, max_value=5000.0)),
            l2_sensitivity=draw(st.floats(min_value=0.0, max_value=1.0)),
        )

    return build()


@given(kernels())
@settings(max_examples=60)
def test_reference_time_bounds_components(kernel):
    """The roofline elapsed time is bounded by the sum and the max of components."""
    reference = kernel.reference_time_s
    assert reference >= max(kernel.compute_time_full_s, kernel.memory_time_full_s)
    assert reference <= (
        kernel.compute_time_full_s + kernel.memory_time_full_s + kernel.serial_time_s + 1e-12
    )


@given(kernels())
@settings(max_examples=60)
def test_pipe_fractions_partition_unity(kernel):
    assert math.isclose(kernel.cuda_fraction + kernel.tensor_fraction, 1.0, rel_tol=1e-6)


@given(kernels(), st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=60)
def test_scaling_is_homogeneous(kernel, factor):
    """Scaling all time components scales the reference time by the same factor."""
    scaled = kernel.scaled(factor)
    assert math.isclose(scaled.reference_time_s, kernel.reference_time_s * factor, rel_tol=1e-9)
    assert math.isclose(
        scaled.serial_time_s / scaled.reference_time_s,
        kernel.serial_time_s / kernel.reference_time_s,
        rel_tol=1e-6,
        abs_tol=1e-9,
    )


@given(kernels())
@settings(max_examples=60)
def test_serial_fraction_is_a_fraction(kernel):
    assert 0.0 <= kernel.serial_time_s / kernel.reference_time_s <= 1.0


@given(kernels())
@settings(max_examples=60)
def test_counters_always_within_percent_range(kernel):
    from repro.sim.counters import collect_counters

    counters = collect_counters(kernel)
    for value in counters.as_array():
        assert 0.0 <= value <= 100.0


@given(kernels())
@settings(max_examples=60)
def test_basis_functions_are_finite(kernel):
    import numpy as np

    from repro.core.features import basis_h, basis_j
    from repro.sim.counters import collect_counters

    counters = collect_counters(kernel)
    assert np.all(np.isfinite(basis_h(counters)))
    assert np.all(np.isfinite(basis_j(counters)))
