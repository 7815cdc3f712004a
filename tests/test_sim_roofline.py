"""Tests for the roofline time composition and the engine's scaling of it."""

from __future__ import annotations

import pytest

import repro.sim.engine as engine_module
from repro.errors import SimulationError
from repro.gpu.mig import MemoryOption, solo_state
from repro.gpu.spec import A100_SPEC
from repro.sim.engine import PerformanceSimulator
from repro.sim.noise import no_noise
from repro.sim.roofline import TimeComponents, bound_of
from repro.workloads.kernel import KernelCharacteristics
from repro.workloads.suite import DEFAULT_SUITE


def _solo_elapsed(compute, memory, serial):
    """A noiseless solo run's elapsed time on the private 7-GPC instance,
    and its roofline composition from the kernel's times at the run's clock."""
    kernel = KernelCharacteristics("k", compute, memory, serial)
    result = PerformanceSimulator(noise=no_noise()).co_run(
        [kernel], solo_state(A100_SPEC.mig_gpcs, MemoryOption.PRIVATE)
    )
    scaled = compute * (A100_SPEC.n_gpcs / A100_SPEC.mig_gpcs) / result.relative_frequency
    return result.per_app[0].elapsed_s, max(scaled, memory) + serial


class TestTimeComponents:
    def test_negative_component_rejected(self):
        with pytest.raises(SimulationError):
            TimeComponents(-0.1, 0.2, 0.0)

    def test_elapsed_is_max_plus_serial(self):
        elapsed, composed = _solo_elapsed(0.8, 0.3, 0.1)
        assert elapsed == composed

    def test_memory_bound_elapsed(self):
        # The full instance keeps every memory slice: memory time is unscaled.
        elapsed, composed = _solo_elapsed(0.2, 0.9, 0.05)
        assert elapsed == composed == 0.9 + 0.05


class TestBoundClassification:
    def test_compute_bound(self):
        assert bound_of(TimeComponents(0.9, 0.2, 0.01)) == "compute"

    def test_memory_bound(self):
        assert bound_of(TimeComponents(0.2, 0.9, 0.01)) == "memory"

    def test_serial_bound(self):
        assert bound_of(TimeComponents(0.01, 0.02, 0.9)) == "serial"



def _private_times(kernel, gpcs=8, bandwidth=1.0, frequency=1.0, penalties=(1.0, 1.0)):
    """Compute, memory and serial times of one private placement, read
    from the engine's shape tables (the roofline scaling every run uses)."""
    placement = engine_module._Placement(kernel, gpcs, bandwidth, None, *penalties)
    shape = engine_module._Shape([placement], A100_SPEC.n_gpcs)
    (compute,), (memory,) = shape.solve(frequency)
    return compute, memory, shape.serial[0]


class TestScaling:
    @pytest.fixture()
    def kernel(self):
        return DEFAULT_SUITE.get("dgemm")

    def test_full_chip_reproduces_the_kernel_times(self, kernel):
        assert _private_times(kernel) == (
            kernel.compute_time_full_s, kernel.memory_time_full_s, kernel.serial_time_s
        )

    def test_compute_scales_with_gpcs(self, kernel):
        full = _private_times(kernel, gpcs=8)
        half = _private_times(kernel, gpcs=4)
        assert half[0] == pytest.approx(2 * full[0])
        assert half[1:] == full[1:]

    def test_compute_scales_with_frequency(self, kernel):
        fast = _private_times(kernel, frequency=1.0)
        slow = _private_times(kernel, frequency=0.5)
        assert slow[0] == pytest.approx(2 * fast[0])
        assert slow[1:] == fast[1:]

    def test_memory_scales_with_bandwidth(self, kernel):
        full = _private_times(kernel, bandwidth=1.0)
        half = _private_times(kernel, bandwidth=0.5)
        assert half[1] == pytest.approx(2 * full[1])
        assert (half[0], half[2]) == (full[0], full[2])

    def test_penalties_inflate_components(self, kernel):
        base = _private_times(kernel)
        penalized = _private_times(kernel, penalties=(1.2, 1.5))
        assert penalized[0] == pytest.approx(1.2 * base[0])
        assert penalized[1] == pytest.approx(1.5 * base[1])
        assert penalized[2] == base[2]
