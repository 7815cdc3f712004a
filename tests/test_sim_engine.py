"""Tests for the execution engine (solo runs, co-runs, power capping)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import PowerCapError, SimulationError
from repro.gpu.mig import CORUN_STATES, MemoryOption, S1, S3, PartitionState, solo_state
from repro.gpu.spec import Pipe
from repro.sim.engine import PerformanceSimulator
from repro.sim.noise import NoiseModel, no_noise
from repro.workloads.kernel import KernelCharacteristics
from repro.workloads.pairs import corun_pair
from repro.workloads.suite import DEFAULT_SUITE


@pytest.fixture(scope="module")
def engine():
    return PerformanceSimulator(noise=no_noise())


def _dram_fractions(engine, kernels, state, frequency):
    """Each application's DRAM fraction, min(1, memory_full / elapsed), at ``frequency``."""
    shape = engine._new_shape(state, tuple(kernels))
    return [load[3] for load in shape.loads(*shape.solve(frequency))]


def _solved(engine, kernels, state, cap):
    """A run's record and the times its shape solved it to, at the governor's clock."""
    result = engine.co_run(kernels, state, cap)
    shape = engine._new_shape(state, tuple(kernels))
    return result, shape.solve(result.relative_frequency)


class TestReferenceRun:
    def test_reference_time_positive(self, engine):
        assert engine.reference_time(DEFAULT_SUITE.get("dgemm")) > 0

    def test_reference_time_cached(self, engine):
        kernel = DEFAULT_SUITE.get("dgemm")
        assert engine.reference_time(kernel) == engine.reference_time(kernel)

    def test_reference_includes_power_throttling_for_tensor_kernels(self, engine):
        """hgemm cannot run at full boost at 250 W, so its reference time is
        longer than the unthrottled roofline time."""
        kernel = DEFAULT_SUITE.get("hgemm")
        assert engine.reference_time(kernel) > kernel.reference_time_s * 1.01

    def test_memory_bound_kernel_not_throttled(self, engine):
        kernel = DEFAULT_SUITE.get("stream")
        assert engine.reference_time(kernel) == pytest.approx(kernel.reference_time_s, rel=0.02)

    def test_reference_time_of_a_pipe_mix_variant_does_not_depend_on_call_order(self):
        """The governed reference solve reads the pipe mix, so a kernel
        that differs only there has a reference of its own."""
        hgemm = DEFAULT_SUITE.get("hgemm")
        variant = dataclasses.replace(hgemm, pipe_fractions={Pipe.FP32: 1.0})
        engine = PerformanceSimulator(noise=no_noise())
        engine.reference_time(hgemm)
        fresh = PerformanceSimulator(noise=no_noise()).reference_time(variant)
        assert engine.reference_time(variant) == fresh
        assert fresh != engine.reference_time(hgemm)


class TestSoloRun:
    def test_full_mig_partition_close_to_reference(self, engine):
        """7 of 8 GPCs with all memory slices loses only a little performance."""
        run = engine.solo_run(DEFAULT_SUITE.get("dgemm"), solo_state(7, MemoryOption.PRIVATE), 250)
        assert 0.8 < run.relative_performance < 1.0

    def test_default_state_and_cap(self, engine):
        kernel = DEFAULT_SUITE.get("dgemm")
        run = engine.solo_run(kernel)
        result = engine.co_run(
            [kernel],
            solo_state(engine.spec.mig_gpcs, MemoryOption.PRIVATE),
            engine.spec.default_power_limit_w,
        )
        assert run is result.per_app[0]
        assert result.power_cap_w == engine.spec.default_power_limit_w
        assert result.state.n_apps == 1

    def test_solo_run_rejects_corun_state(self, engine):
        with pytest.raises(SimulationError):
            engine.solo_run(DEFAULT_SUITE.get("dgemm"), S1, 250)

    def test_invalid_power_cap_rejected(self, engine):
        with pytest.raises(PowerCapError):
            engine.solo_run(DEFAULT_SUITE.get("dgemm"), solo_state(4), 50)

    def test_compute_kernel_scales_with_gpcs(self, engine):
        kernel = DEFAULT_SUITE.get("dgemm")
        perf = [
            engine.solo_run(kernel, solo_state(g, MemoryOption.PRIVATE), 250).relative_performance
            for g in (1, 2, 3, 4, 7)
        ]
        assert perf == sorted(perf)
        assert perf[0] < 0.2
        assert perf[-1] > 0.8

    def test_memory_kernel_depends_on_option(self, engine):
        kernel = DEFAULT_SUITE.get("stream")
        private = engine.solo_run(kernel, solo_state(3, MemoryOption.PRIVATE), 250)
        shared = engine.solo_run(kernel, solo_state(3, MemoryOption.SHARED), 250)
        assert shared.relative_performance > 1.5 * private.relative_performance

    def test_compute_kernel_insensitive_to_option(self, engine):
        kernel = DEFAULT_SUITE.get("dgemm")
        private = engine.solo_run(kernel, solo_state(3, MemoryOption.PRIVATE), 250)
        shared = engine.solo_run(kernel, solo_state(3, MemoryOption.SHARED), 250)
        assert shared.relative_performance == pytest.approx(
            private.relative_performance, rel=0.05
        )

    def test_unscalable_kernel_flat(self, engine):
        kernel = DEFAULT_SUITE.get("kmeans")
        small = engine.solo_run(kernel, solo_state(1, MemoryOption.PRIVATE), 150)
        assert small.relative_performance > 0.9

    def test_power_cap_hurts_tensor_kernel(self, engine):
        kernel = DEFAULT_SUITE.get("hgemm")
        low = engine.co_run([kernel], solo_state(7, MemoryOption.SHARED), 150)
        high = engine.co_run([kernel], solo_state(7, MemoryOption.SHARED), 250)
        assert low.per_app[0].relative_performance < 0.85 * high.per_app[0].relative_performance
        assert low.relative_frequency < high.relative_frequency

    def test_power_cap_ignored_by_memory_kernel(self, engine):
        kernel = DEFAULT_SUITE.get("stream")
        low = engine.solo_run(kernel, solo_state(7, MemoryOption.SHARED), 150)
        high = engine.solo_run(kernel, solo_state(7, MemoryOption.SHARED), 250)
        assert low.relative_performance == pytest.approx(high.relative_performance, rel=0.03)

    def test_run_result_fields_are_consistent(self, engine):
        kernel = DEFAULT_SUITE.get("srad")
        state = solo_state(4, MemoryOption.PRIVATE)
        result, ((compute,), (memory,)) = _solved(engine, [kernel], state, 210)
        run = result.per_app[0]
        assert run.kernel_name == "srad"
        assert run.relative_performance == engine.reference_time(kernel) / run.elapsed_s
        # The no-noise engine measures the roofline elapsed time.
        assert run.elapsed_s == max(compute, memory) + kernel.serial_time_s
        assert run.bound in ("compute", "memory", "serial")
        assert 0 < result.relative_frequency <= 1.0
        assert run.chip_power_w <= 210 + 1e-6
        (dram,) = _dram_fractions(engine, [kernel], state, result.relative_frequency)
        assert dram * engine.spec.dram_bandwidth_gbs <= engine.spec.dram_bandwidth_gbs + 1e-6

    def test_slowdown(self, engine):
        # The slowdown against the exclusive full-GPU run is 1 / RPerf.
        kernel = DEFAULT_SUITE.get("dgemm")
        run = engine.solo_run(kernel, solo_state(4, MemoryOption.PRIVATE), 250)
        slowdown = run.elapsed_s / engine.reference_time(kernel)
        assert slowdown == pytest.approx(1 / run.relative_performance)


class TestCoRun:
    def test_corun_returns_one_result_per_app(self, engine):
        pair = corun_pair("TI-MI2")
        result = engine.co_run(list(pair.kernels()), S1, 250)
        assert result.n_apps == 2
        assert result.per_app[0].kernel_name == "igemm4"
        assert result.per_app[1].kernel_name == "stream"

    def test_mismatched_kernel_count_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.co_run([DEFAULT_SUITE.get("dgemm")], S1, 250)

    def test_metrics_derive_from_per_app_results(self, engine):
        result = engine.co_run(list(corun_pair("CI-US1").kernels()), S3, 230)
        assert result.weighted_speedup == pytest.approx(sum(result.relative_performances))
        assert result.fairness == pytest.approx(min(result.relative_performances))
        assert result.energy_efficiency == pytest.approx(result.weighted_speedup / 230)

    def test_chip_power_respects_cap(self, engine):
        for cap in (150, 190, 250):
            result = engine.co_run(list(corun_pair("TI-TI1").kernels()), S1, cap)
            assert result.chip_power_w <= cap + 1e-6

    def test_ti_mi_pair_prefers_shared_with_more_gpcs_for_tensor(self, engine):
        """The paper's Figure 6 headline: S1 wins TI-MI2 by a wide margin."""
        kernels = list(corun_pair("TI-MI2").kernels())
        results = {s.label: engine.co_run(kernels, s, 250).weighted_speedup for s in CORUN_STATES}
        assert max(results, key=results.get) == "S1"
        assert results["S1"] / min(results.values()) > 1.2

    def test_ci_us_pair_prefers_private(self, engine):
        """The paper's Figure 6 second observation: private wins CI-US1."""
        kernels = list(corun_pair("CI-US1").kernels())
        results = {s.label: engine.co_run(kernels, s, 250).weighted_speedup for s in CORUN_STATES}
        assert max(results, key=results.get) in ("S3", "S4")

    def test_unscalable_partner_keeps_high_relative_performance(self, engine):
        result = engine.co_run(list(corun_pair("CI-US1").kernels()), S3, 250)
        assert result.per_app[1].relative_performance > 0.85

    def test_shared_interference_hurts_sensitive_kernel(self, engine):
        kernels = list(corun_pair("CI-US1").kernels())
        shared = engine.co_run(kernels, S1, 250).per_app[0].relative_performance
        private = engine.co_run(kernels, S3, 250).per_app[0].relative_performance
        assert private > shared

    def test_bandwidth_contention_between_memory_kernels(self, engine):
        """Two memory-bound kernels sharing the chip cannot both keep full
        bandwidth: the sum of their achieved bandwidth stays below the peak."""
        kernels = list(corun_pair("MI-MI2").kernels())
        result = engine.co_run(kernels, S1, 250)
        fractions = _dram_fractions(engine, kernels, S1, result.relative_frequency)
        total = sum(fraction * engine.spec.dram_bandwidth_gbs for fraction in fractions)
        assert total <= engine.spec.dram_bandwidth_gbs * 1.01
        assert all(r.relative_performance < 0.8 for r in result.per_app)

    def test_us_us_pair_is_trivially_fair(self, engine):
        result = engine.co_run(list(corun_pair("US-US2").kernels()), S3, 150)
        assert result.fairness > 0.85
        assert result.weighted_speedup > 1.7


class TestNoiseIntegration:
    def test_noise_changes_measurement_but_not_ground_truth(self):
        noisy = PerformanceSimulator(noise=NoiseModel(sigma=0.05, seed=3))
        clean = PerformanceSimulator(noise=no_noise())
        kernel = DEFAULT_SUITE.get("dgemm")
        state = solo_state(4, MemoryOption.PRIVATE)
        noisy_result, noisy_times = _solved(noisy, [kernel], state, 250)
        clean_result, clean_times = _solved(clean, [kernel], state, 250)
        # Both engines solve the same times; the noise scales only the measurement.
        assert noisy_result.relative_frequency == clean_result.relative_frequency
        assert noisy_times == clean_times
        ((compute,), (memory,)) = clean_times
        assert clean_result.per_app[0].elapsed_s == max(compute, memory) + kernel.serial_time_s
        assert noisy_result.per_app[0].elapsed_s != clean_result.per_app[0].elapsed_s

    def test_noisy_measurements_are_reproducible(self):
        sim_a = PerformanceSimulator(noise=NoiseModel(sigma=0.05, seed=3))
        sim_b = PerformanceSimulator(noise=NoiseModel(sigma=0.05, seed=3))
        kernel = DEFAULT_SUITE.get("dgemm")
        run_a = sim_a.solo_run(kernel, solo_state(4, MemoryOption.PRIVATE), 250)
        run_b = sim_b.solo_run(kernel, solo_state(4, MemoryOption.PRIVATE), 250)
        assert run_a.elapsed_s == run_b.elapsed_s


def _probe(name: str = "probe", **overrides) -> KernelCharacteristics:
    """A cache-sensitive kernel whose every solve field moves a shared S1 run."""
    fields = dict(
        name=name,
        compute_time_full_s=0.8,
        memory_time_full_s=0.3,
        serial_time_s=0.02,
        pipe_fractions={Pipe.FP32: 1.0},
        l2_hit_rate=0.6,
        occupancy=0.5,
        working_set_mb=10.0,
        l2_sensitivity=0.4,
    )
    fields.update(overrides)
    return KernelCharacteristics(**fields)


#: A changed value for each kernel field the run solve reads.
RUN_FIELD_CHANGES = {
    "name": "other",
    "compute_time_full_s": 1.2,
    "memory_time_full_s": 1.0,
    "serial_time_s": 0.1,
    "pipe_fractions": {Pipe.TENSOR_MIXED: 1.0},
    "working_set_mb": 30.0,
    "l2_sensitivity": 0.8,
}


class TestMemoKeys:
    """The run and reference-time memos key on the kernel's stored signature."""

    @pytest.mark.parametrize("field", sorted(RUN_FIELD_CHANGES))
    def test_a_kernel_differing_in_one_field_gets_its_own_run(self, field):
        warm = PerformanceSimulator(noise=no_noise())
        partner = _probe("partner")
        cached = warm.co_run([_probe(), partner], S1, 150)
        variant = dataclasses.replace(_probe(), **{field: RUN_FIELD_CHANGES[field]})
        result = warm.co_run([variant, partner], S1, 150)
        assert result != cached
        assert result == PerformanceSimulator(noise=no_noise()).co_run(
            [variant, partner], S1, 150
        )

    @pytest.mark.parametrize(
        "field", ["compute_time_full_s", "memory_time_full_s", "serial_time_s"]
    )
    def test_a_kernel_differing_in_one_field_gets_its_own_reference_time(self, field):
        warm = PerformanceSimulator(noise=no_noise())
        cached = warm.reference_time(_probe())
        variant = dataclasses.replace(_probe(), **{field: RUN_FIELD_CHANGES[field]})
        fresh = PerformanceSimulator(noise=no_noise()).reference_time(variant)
        assert warm.reference_time(variant) == fresh
        assert fresh != cached

    def test_equal_but_distinct_kernels_share_one_run(self):
        engine = PerformanceSimulator(noise=no_noise())
        first = engine.co_run([_probe(), _probe("partner")], S1, 150)
        second = engine.co_run([_probe(), _probe("partner")], S1, 150)
        assert second is first


class TestCustomStates:
    def test_small_plus_small_private_state(self, engine):
        state = PartitionState((2, 2), MemoryOption.PRIVATE)
        result = engine.co_run(
            [DEFAULT_SUITE.get("dgemm"), DEFAULT_SUITE.get("hotspot")], state, 250
        )
        assert result.n_apps == 2
        for run in result.per_app:
            assert 0.1 < run.relative_performance < 0.5

    def test_profile_returns_counters(self, engine):
        counters = engine.profile(DEFAULT_SUITE.get("hgemm"))
        assert counters.tensor_mixed > 0
