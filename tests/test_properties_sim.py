"""Property-based tests for the execution simulator's physical invariants."""

from __future__ import annotations

import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.workflow as workflow_module
import repro.sim.engine as engine_module
from repro.core.training import CoRunMeasurement, SoloMeasurement
from repro.core.workflow import OfflineTrainer, TrainingPlan, power_caps_for_spec
from repro.gpu.mig import (
    CORUN_STATES,
    MemoryOption,
    PartitionState,
    enumerate_partition_states,
    solo_state,
)
from repro.gpu.spec import GPU_SPECS
from repro.sim.engine import PerformanceSimulator
from repro.sim.noise import no_noise
from repro.workloads.suite import DEFAULT_SUITE
from repro.workloads.synthetic import SyntheticWorkloadGenerator

_SIM = PerformanceSimulator(noise=no_noise())
_GENERATOR = SyntheticWorkloadGenerator(seed=11)
_KERNEL_POOL = list(DEFAULT_SUITE.all()) + list(_GENERATOR.sample(12))

kernel_strategy = st.sampled_from(_KERNEL_POOL)
# Sample the simulated spec's own instance sizes, not the cross-spec
# union (VALID_INSTANCE_SIZES) — the 8-XCD mi300x size is invalid here.
gpcs_strategy = st.sampled_from(_SIM.spec.mig_instance_sizes)
option_strategy = st.sampled_from([MemoryOption.PRIVATE, MemoryOption.SHARED])
cap_strategy = st.sampled_from([150.0, 170.0, 190.0, 210.0, 230.0, 250.0])
state_strategy = st.sampled_from(CORUN_STATES)


@given(kernel_strategy, gpcs_strategy, option_strategy, cap_strategy)
@settings(max_examples=80, deadline=None)
def test_solo_relative_performance_bounded(kernel, gpcs, option, cap):
    """A partitioned, capped run can never beat the exclusive full-GPU run by
    more than a small margin (the margin exists because the reference run may
    itself be power-throttled while a small partition is not)."""
    run = _SIM.solo_run(kernel, solo_state(gpcs, option), cap)
    assert 0.0 < run.relative_performance <= 1.25
    assert run.chip_power_w <= cap + 1e-6
    assert 0.0 < run.relative_frequency <= 1.0


@given(kernel_strategy, option_strategy, cap_strategy)
@settings(max_examples=40, deadline=None)
def test_solo_performance_monotonic_in_gpcs(kernel, option, cap):
    """More GPCs never hurt (for the private option the slice count also
    grows monotonically with the GPC count)."""
    values = [
        _SIM.solo_run(kernel, solo_state(g, option), cap).relative_performance
        for g in (1, 2, 3, 4, 7)
    ]
    for smaller, larger in zip(values, values[1:]):
        assert larger >= smaller - 1e-6


@given(kernel_strategy, gpcs_strategy, option_strategy)
@settings(max_examples=40, deadline=None)
def test_solo_performance_monotonic_in_power(kernel, gpcs, option):
    """A higher power cap never hurts."""
    values = [
        _SIM.solo_run(kernel, solo_state(gpcs, option), cap).relative_performance
        for cap in (150.0, 190.0, 230.0, 250.0)
    ]
    for lower, higher in zip(values, values[1:]):
        assert higher >= lower - 1e-6


@given(st.sampled_from(_KERNEL_POOL), st.sampled_from(_KERNEL_POOL), state_strategy, cap_strategy)
@settings(max_examples=60, deadline=None)
def test_corun_invariants(kernel_a, kernel_b, state, cap):
    """Co-run invariants: metric definitions, fairness <= min share, power cap
    respected, total bandwidth bounded by the chip peak."""
    result = _SIM.co_run([kernel_a, kernel_b], state, cap)
    assert result.weighted_speedup == sum(result.relative_performances)
    assert result.fairness == min(result.relative_performances)
    assert result.fairness <= result.weighted_speedup / 2 + 1e-9
    assert result.chip_power_w <= cap + 1e-6
    total_bw = sum(r.achieved_bandwidth_gbs for r in result.per_app)
    assert total_bw <= _SIM.spec.dram_bandwidth_gbs * 1.01
    for run in result.per_app:
        assert 0.0 < run.relative_performance <= 1.25


@given(st.sampled_from(_KERNEL_POOL), st.sampled_from(_KERNEL_POOL), cap_strategy)
@settings(max_examples=40, deadline=None)
def test_corun_app_never_beats_its_solo_run_on_same_partition(kernel_a, kernel_b, cap):
    """Adding a co-runner can only hurt (or leave unchanged) each application
    compared to running alone on the same partition slice."""
    state = CORUN_STATES[0]  # S1: shared, 4+3
    corun = _SIM.co_run([kernel_a, kernel_b], state, cap)
    solo_a = _SIM.solo_run(kernel_a, solo_state(4, MemoryOption.SHARED), cap)
    solo_b = _SIM.solo_run(kernel_b, solo_state(3, MemoryOption.SHARED), cap)
    assert corun.per_app[0].relative_performance <= solo_a.relative_performance + 1e-6
    assert corun.per_app[1].relative_performance <= solo_b.relative_performance + 1e-6


@given(st.sampled_from(_KERNEL_POOL), state_strategy, cap_strategy)
@settings(max_examples=30, deadline=None)
def test_swapping_applications_swaps_results(kernel, state, cap):
    """Running (A, B) under S and (B, A) under the swapped state is symmetric."""
    other = DEFAULT_SUITE.get("stream")
    forward = _SIM.co_run([kernel, other], state, cap)
    backward = _SIM.co_run([other, kernel], state.swapped(), cap)
    assert forward.per_app[0].relative_performance == (
        backward.per_app[1].relative_performance
    )
    assert forward.per_app[1].relative_performance == (
        backward.per_app[0].relative_performance
    )


# ----------------------------------------------------------------------
# co_run_batch: the lockstep solve against the scalar oracle
# ----------------------------------------------------------------------
def _governor_exit(simulator, kernels, state, cap):
    """Which exit the scalar power-cap governor takes for one run."""
    placements = simulator._build_placements(state, tuple(kernels))

    def power(frequency):
        solved = simulator._solve_at_frequency(placements, frequency)
        loads = simulator._loads_from_solution(placements, solved)
        return simulator.power_model.total_power(loads, frequency, simulator.spec.mig_gpcs)

    if power(1.0) <= cap:
        return "uncapped"
    if power(simulator.spec.min_relative_frequency) > cap:
        return "floor"
    return "bisection"


def _first_state(spec, n_apps, option):
    return next(iter(enumerate_partition_states(n_apps, spec, (option,))))


def _forced_exit_runs(spec_name):
    """One run per governor exit the spec can reach.

    Random draws almost never hit the floor exit, so it is forced: at the
    lowest cap, memory-bound groups sharing the full chip keep the HBM
    busy enough that even the lowest clock exceeds the cap (A100 and
    H100; the A30 and MI300X envelopes never reach it).
    """
    spec = GPU_SPECS[spec_name]
    stream = DEFAULT_SUITE.get("stream")
    runs = {
        "uncapped": ((stream,), _first_state(spec, 1, MemoryOption.PRIVATE), spec.max_power_cap_w),
        "bisection": (
            (DEFAULT_SUITE.get("hgemm"),),
            solo_state(spec.mig_gpcs, MemoryOption.SHARED),
            spec.min_power_cap_w,
        ),
    }
    if spec_name in ("a100", "h100"):
        runs["floor"] = (
            (stream,) * 3,
            PartitionState((2, 2, 3), MemoryOption.SHARED),
            spec.min_power_cap_w,
        )
    return runs


_SPEC_NAMES = sorted(GPU_SPECS)
_STATES = {
    (name, n): tuple(enumerate_partition_states(n, GPU_SPECS[name]))
    for name in _SPEC_NAMES
    for n in (1, 2, 3, 4)
}
# A pool member without memory time keeps its times in the fixed point
# (the non-streaming branch of the lockstep solve).
_COMPUTE_ONLY_KERNEL = dataclasses.replace(
    DEFAULT_SUITE.get("hgemm"), name="hgemm-compute-only", memory_time_full_s=0.0
)
_BATCH_KERNELS = _KERNEL_POOL + [_COMPUTE_ONLY_KERNEL]


@st.composite
def _batches(draw):
    name = draw(st.sampled_from(_SPEC_NAMES))
    spec = GPU_SPECS[name]
    runs = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 4))
        states = _STATES[(name, n)]
        if not states:
            continue
        kernels = tuple(draw(st.sampled_from(_BATCH_KERNELS)) for _ in range(n))
        cap = draw(
            st.one_of(
                st.just(spec.min_power_cap_w),
                st.just(spec.max_power_cap_w),
                st.floats(spec.min_power_cap_w, spec.max_power_cap_w),
            )
        )
        runs.append((kernels, draw(st.sampled_from(states)), cap))
    runs.extend(_forced_exit_runs(name).values())
    # Repeats exercise the memo replay inside one batch.
    runs.extend(draw(st.lists(st.sampled_from(runs), max_size=2)))
    return spec, draw(st.permutations(runs))


def _bits(value):
    """A result as nested tuples, with every float as its IEEE-754 bytes."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, tuple):
        return tuple(_bits(item) for item in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, PartitionState):
        return tuple(
            (field.name, _bits(getattr(value, field.name)))
            for field in dataclasses.fields(value)
        )
    return value


@given(_batches(), st.booleans())
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_co_run_batch_matches_scalar_co_run_bit_for_bit(batch, noisy):
    spec, runs = batch
    noise = None if noisy else no_noise()
    batched = PerformanceSimulator(spec, noise=noise)
    scalar = PerformanceSimulator(spec, noise=noise)
    results = batched.co_run_batch(runs)
    expected = [scalar.co_run(kernels, state, cap) for kernels, state, cap in runs]
    assert [_bits(r) for r in results] == [_bits(r) for r in expected]
    assert list(batched._run_cache) == list(scalar._run_cache)


@pytest.mark.parametrize("spec_name", _SPEC_NAMES)
def test_forced_runs_hit_every_reachable_governor_exit(spec_name):
    simulator = PerformanceSimulator(GPU_SPECS[spec_name])
    for expected, (kernels, state, cap) in _forced_exit_runs(spec_name).items():
        assert _governor_exit(simulator, kernels, state, cap) == expected


def test_co_run_batch_keeps_the_memo_lru_order_of_the_scalar_loop(monkeypatch):
    """Entries already memoized are hits (moved to the end), evictions
    follow run order, and a run repeated after its eviction re-enters."""
    monkeypatch.setattr(engine_module, "_RUN_CACHE_SIZE", 8)
    kernels = (DEFAULT_SUITE.get("hgemm"), DEFAULT_SUITE.get("stream"))
    runs = [(kernels, CORUN_STATES[0], 150.0 + i) for i in range(12)]
    runs += runs[:2]
    batched = PerformanceSimulator(noise=no_noise())
    scalar = PerformanceSimulator(noise=no_noise())
    for simulator in (batched, scalar):
        simulator.co_run(kernels, CORUN_STATES[0], 153.0)
    results = batched.co_run_batch(runs)
    expected = [scalar.co_run(*run) for run in runs]
    assert [_bits(r) for r in results] == [_bits(r) for r in expected]
    assert list(batched._run_cache) == list(scalar._run_cache)
    assert len(batched._run_cache) == 8


def test_builtin_sum_mirrors_the_interpreter_both_ways():
    rng = np.random.default_rng(7)
    columns = [rng.random(64) * 10.0 ** rng.integers(-8, 8, 64) for _ in range(4)]

    def neumaier(values):
        # CPython 3.12+ float ``sum`` (Objects/bltinmodule.c).
        total, compensation = 0.0 + values[0], 0.0
        for x in values[1:]:
            t = total + x
            if abs(total) >= abs(x):
                compensation += (total - t) + x
            else:
                compensation += (x - t) + total
            total = t
        if compensation and math.isfinite(compensation):
            total += compensation
        return total

    def left_to_right(values):
        total = 0.0
        for x in values:
            total += x
        return total

    rows = [[float(column[r]) for column in columns] for r in range(64)]
    for compensated, reference in ((False, left_to_right), (True, neumaier)):
        got = engine_module._builtin_sum(columns, compensated=compensated).tolist()
        assert [struct.pack("<d", v) for v in got] == [
            struct.pack("<d", reference(row)) for row in rows
        ]
    native = engine_module._builtin_sum(columns).tolist()
    assert [struct.pack("<d", v) for v in native] == [
        struct.pack("<d", sum(row)) for row in rows
    ]


# ----------------------------------------------------------------------
# Batched training sweeps against a scalar co_run loop
# ----------------------------------------------------------------------
def _scalar_solo_sweep(simulator, kernels, gpc_counts, options, power_caps):
    measurements = []
    for kernel in kernels:
        counters = simulator.profile(kernel)
        for option in options:
            for gpcs in gpc_counts:
                state = solo_state(gpcs, option)
                mem_slices = state.mem_slices_for(0, simulator.spec)
                for cap in power_caps:
                    run = simulator.solo_run(kernel, state, cap)
                    measurements.append(
                        SoloMeasurement(
                            kernel.name, counters, gpcs, MemoryOption(option),
                            float(cap), run.relative_performance, mem_slices,
                        )
                    )
    return measurements


def _scalar_corun_sweep(simulator, groups, states, power_caps):
    measurements = []
    for kernels in groups:
        counters = tuple(simulator.profile(kernel) for kernel in kernels)
        names = tuple(kernel.name for kernel in kernels)
        for state in states:
            if state.n_apps != len(kernels):
                continue
            for cap in power_caps:
                result = simulator.co_run(list(kernels), state, cap)
                measurements.append(
                    CoRunMeasurement(
                        names, counters, state, float(cap), result.relative_performances
                    )
                )
    return measurements


def _train(spec, plan):
    simulator = PerformanceSimulator(spec)
    model = OfflineTrainer(simulator, plan=plan).run()
    return json.dumps(model.to_dict()), list(simulator._run_cache)


@pytest.mark.parametrize(
    "spec_name, reduced_grid",
    [("a100", False), ("a100", True), ("mi300x", True)],
    ids=["a100-pairs", "a100-general-reduced", "mi300x-general-reduced"],
)
def test_batched_training_equals_the_scalar_sweep(monkeypatch, spec_name, reduced_grid):
    spec = GPU_SPECS[spec_name]
    plan = (
        TrainingPlan.for_spec(spec, power_caps=power_caps_for_spec(spec)[-2:])
        if reduced_grid
        else TrainingPlan()
    )
    batched = _train(spec, plan)
    monkeypatch.setattr(workflow_module, "collect_solo_measurements", _scalar_solo_sweep)
    monkeypatch.setattr(workflow_module, "collect_corun_measurements", _scalar_corun_sweep)
    scalar = _train(spec, plan)
    assert batched[0] == scalar[0]
    assert batched[1] == scalar[1]
