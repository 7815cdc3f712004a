"""Property-based tests for the execution simulator's physical invariants."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.workflow as workflow_module
import repro.numerics as numerics
import repro.sim.engine as engine_module
import repro.sim.noise as noise_module
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
from repro.sim.results import CoRunResult
from repro.sim.roofline import bound_of
from repro.workloads.kernel import WorkloadClass
from repro.workloads.suite import DEFAULT_SUITE
from repro.workloads.synthetic import SyntheticWorkloadGenerator
from solve_oracle import chip_power_at

_SIM = PerformanceSimulator(noise=no_noise())
_GENERATOR = SyntheticWorkloadGenerator(seed=11)
_KERNEL_POOL = list(DEFAULT_SUITE.all()) + [
    _GENERATOR.sample_class(c) for c in list(WorkloadClass) * 3
]

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
    result = _SIM.co_run([kernel], solo_state(gpcs, option), cap)
    run = _SIM.solo_run(kernel, solo_state(gpcs, option), cap)
    assert run is result.per_app[0]
    assert 0.0 < run.relative_performance <= 1.25
    assert run.chip_power_w <= cap + 1e-6
    assert 0.0 < result.relative_frequency <= 1.0


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
    # Each application's DRAM fraction, min(1, memory_full / elapsed), at the run's clock.
    shape = _SIM._new_shape(state, (kernel_a, kernel_b))
    loads = shape.loads(*shape.solve(result.relative_frequency))
    total_bw = sum(load[3] * _SIM.spec.dram_bandwidth_gbs for load in loads)
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
        return chip_power_at(simulator, placements, frequency, simulator.spec.mig_gpcs)[0]

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


def _solved(run):
    """A solved run's compute and memory times and its clock, as bits."""
    return _bits((tuple(run.times[0]), tuple(run.times[1]), run.frequency))


def _scalar_loop(simulator, runs):
    """Each run's ``co_run`` record, and the solved run that record was
    built from (``None`` where the run memo answered)."""
    solved = []
    measure = simulator._measure

    def recording(*args):
        solved.append(measure(*args))
        return solved[-1]

    simulator._measure = recording
    records, sources = [], []
    for run in runs:
        count = len(solved)
        records.append(simulator.co_run(*run))
        sources.append(solved[-1] if len(solved) > count else None)
    del simulator._measure
    return records, sources


def _assert_same_solves(columns, sources):
    """Every run both sides solved has the same times and clock, bit for bit."""
    both = [
        (batched, scalar)
        for batched, scalar in zip(columns._runs, sources)
        if isinstance(batched, engine_module._Run) and scalar is not None
    ]
    assert both
    assert [_solved(batched) for batched, _ in both] == [_solved(scalar) for _, scalar in both]


@given(_batches(), st.booleans())
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_co_run_batch_matches_scalar_co_run_bit_for_bit(batch, noisy):
    spec, runs = batch
    noise = None if noisy else no_noise()
    batched = PerformanceSimulator(spec, noise=noise)
    scalar = PerformanceSimulator(spec, noise=noise)
    results = batched.co_run_batch(runs)
    expected, sources = _scalar_loop(scalar, runs)
    assert [_bits(r) for r in results] == [_bits(r) for r in expected]
    assert list(batched._run_cache) == list(scalar._run_cache)
    # Every distinct run's solved times and clock, not only its record.
    assert sum(source is not None for source in sources) == len(set(map(id, results._runs)))
    _assert_same_solves(results, sources)
    # The RPerf column is every record's RPerfs, bit for bit.
    assert _bits(tuple(results.relative_performances)) == _bits(
        tuple(r.relative_performances for r in expected)
    )
    # The memo hands later hits the very records the batch built.
    for index, run in enumerate(runs):
        again = batched.co_run(*run)
        assert again is results[index]
        assert _bits(again) == _bits(expected[index])
    # Each hit put its record in its memo entry.
    assert all(type(entry) is CoRunResult for entry in batched._run_cache.values())
    # A memo hit before any index read builds the record the index returns.
    fresh = PerformanceSimulator(spec, noise=noise)
    columns = fresh.co_run_batch(runs)
    hits = [fresh.co_run(*run) for run in runs]
    assert all(hit is columns[index] for index, hit in enumerate(hits))
    assert columns[:] == hits


def _every_state_runs(spec_name):
    """Every enumerated state of 1-4 applications at the lowest, a middle
    and the highest cap, each state with its own group drawn round-robin
    from the suite and the compute-only kernel."""
    spec = GPU_SPECS[spec_name]
    caps = (
        spec.min_power_cap_w,
        0.5 * (spec.min_power_cap_w + spec.max_power_cap_w),
        spec.max_power_cap_w,
    )
    runs = []
    for draw, state in enumerate(
        state for n in (1, 2, 3, 4) for state in _STATES[(spec_name, n)]
    ):
        kernels = tuple(
            _ORACLE_KERNELS[(draw + 7 * i) % len(_ORACLE_KERNELS)] for i in range(state.n_apps)
        )
        runs.extend((kernels, state, cap) for cap in caps)
    return spec, runs


@pytest.mark.parametrize("noisy", [False, True], ids=["noise-free", "noisy"])
@pytest.mark.parametrize("spec_name", _SPEC_NAMES)
def test_one_batch_across_every_pool_layout_matches_the_scalar_loop(spec_name, noisy):
    """Private, shared and every mixed grouping in one batch: each group
    size is one lockstep pass, so pools of one member count from different
    layouts (and from different positions in the group) share one array."""
    spec, runs = _every_state_runs(spec_name)
    noise = None if noisy else no_noise()
    simulator = PerformanceSimulator(spec, noise=noise)
    # The pools, by group size and member count, that one pass stacks.
    layouts = {}
    for kernels, state, _ in runs:
        shape = simulator._new_shape(state, kernels)
        for pool in shape.pools:
            layouts.setdefault((state.n_apps, len(pool[0])), set()).add(tuple(pool[0]))
    options = {(state.option, state.gi_groups) for _, state, _ in runs}
    assert {MemoryOption.PRIVATE, MemoryOption.SHARED} <= {option for option, _ in options}
    if spec_name in ("a100", "h100"):
        # Every mixed grouping: 3 of three applications and 13 of four.
        assert len({groups for option, groups in options if option is MemoryOption.MIXED}) == 16
        assert layouts[(4, 2)] == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
        assert len(layouts[(4, 3)]) == 4 and layouts[(3, 2)] == {(0, 1), (0, 2), (1, 2)}
    results = simulator.co_run_batch(runs)
    scalar = PerformanceSimulator(spec, noise=noise)
    expected, sources = _scalar_loop(scalar, runs)
    assert [_bits(r) for r in results] == [_bits(r) for r in expected]
    assert list(simulator._run_cache) == list(scalar._run_cache)
    _assert_same_solves(results, sources)


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
    expected, sources = _scalar_loop(scalar, runs)
    assert [_bits(r) for r in results] == [_bits(r) for r in expected]
    assert list(batched._run_cache) == list(scalar._run_cache)
    assert len(batched._run_cache) == 8
    _assert_same_solves(results, sources)


# ----------------------------------------------------------------------
# Remembered shapes: power curves read across drifting caps
# ----------------------------------------------------------------------
def _drifting_runs(spec_name):
    """Runs that revisit a few shapes at ~200 drifting caps.

    The forced-exit runs come first, then every shape at every cap: the
    forced-exit shapes on each spec, and on the A100 a pair under both
    memory options of one GPC split and a mixed three-application state.
    Caps are rounded to 0.1 W so that some runs repeat (run-memo hits),
    and every other A100 pair run uses equal but distinct kernel objects,
    which must share the pair's shape.
    """
    spec = GPU_SPECS[spec_name]
    rng = np.random.default_rng(17)
    drawn = np.round(rng.uniform(spec.min_power_cap_w, spec.max_power_cap_w, 200), 1)
    caps = [spec.min_power_cap_w, spec.max_power_cap_w, *drawn.tolist()]
    forced = list(_forced_exit_runs(spec_name).values())
    shapes = [(kernels, state) for kernels, state, _ in forced]
    pair = (DEFAULT_SUITE.get("hgemm"), DEFAULT_SUITE.get("stream"))
    twins = tuple(dataclasses.replace(kernel) for kernel in pair)
    if spec_name == "a100":
        shapes += [
            (pair, PartitionState((4, 3), MemoryOption.SHARED)),
            (pair, PartitionState((4, 3), MemoryOption.PRIVATE)),
            (
                (*pair, DEFAULT_SUITE.get("kmeans")),
                PartitionState((2, 2, 3), MemoryOption.MIXED, gi_groups=(0, 0, 1)),
            ),
        ]
    runs = list(forced)
    for index, cap in enumerate(caps):
        for kernels, state in shapes:
            if index % 2 and kernels is pair:
                kernels = twins
            runs.append((kernels, state, cap))
    return spec, runs


@pytest.mark.parametrize("noisy", [False, True], ids=["noise-free", "noisy"])
@pytest.mark.parametrize("spec_name", _SPEC_NAMES)
def test_remembered_power_curves_match_the_lockstep_oracle(monkeypatch, spec_name, noisy):
    """A long-lived simulator reads its shapes' power curves across caps;
    every result must equal the lockstep batch's, which never reads them.

    One batch on a fresh simulator solves each distinct run in its own
    row, so entry ``i`` is what ``co_run_batch([runs[i]])`` returns on a
    fresh simulator.  The sequence runs twice: under the real bound, and
    with the bound at a few shapes' worth of points, so shapes are
    forgotten and rebuilt mid-sequence.
    """
    spec, runs = _drifting_runs(spec_name)
    noise = None if noisy else no_noise()
    columns = PerformanceSimulator(spec, noise=noise).co_run_batch(runs)
    expected = [_bits(r) for r in columns]
    simulator = PerformanceSimulator(spec, noise=noise)
    records, sources = _scalar_loop(simulator, runs)
    assert [_bits(r) for r in records] == expected
    _assert_same_solves(columns, sources)
    assert 0 < simulator._curve_points <= engine_module._CURVE_POINTS
    # Equal kernel objects share one shape.
    names = {(tuple(k.name for k in kernels), state.key()) for kernels, state, _ in runs}
    assert len(simulator._shapes) == len(names)

    bound = 64
    monkeypatch.setattr(engine_module, "_CURVE_POINTS", bound)
    simulator = PerformanceSimulator(spec, noise=noise)
    recency: dict[tuple, None] = {}
    rebuilt = 0
    for run, want, batched in zip(runs, expected, columns._runs):
        kernels, state, cap = run
        key = simulator._run_key(tuple(kernels), state, float(cap))
        if key not in simulator._run_cache:
            if key[:2] in recency and key[:2] not in simulator._shapes:
                rebuilt += 1
            recency.pop(key[:2], None)
            recency[key[:2]] = None
        (record,), (source,) = _scalar_loop(simulator, [run])
        assert _bits(record) == want
        assert source is None or _solved(source) == _solved(batched)
        shapes = simulator._shapes
        points = sum(len(shape.power) for shape in shapes.values())
        assert simulator._curve_points == points <= bound
        # The shapes kept are the most recently used ones: the least
        # recently used shape always left first.
        assert list(shapes) == list(recency)[len(recency) - len(shapes):]
    assert rebuilt > 0


# ----------------------------------------------------------------------
# Shape tables against the scalar solve they replaced
# ----------------------------------------------------------------------
_ORACLE_KERNELS = list(DEFAULT_SUITE.all()) + [_COMPUTE_ONLY_KERNEL]


def _oracle_clocks(simulator):
    """The floor, the top, the first bisection midpoints and their quantized clocks."""
    floor = simulator.spec.min_relative_frequency
    mid = 0.5 * (floor + 1.0)
    midpoints = [mid, 0.5 * (floor + mid), 0.5 * (mid + 1.0)]
    quantize = simulator.power_model.dvfs.quantize
    return [floor, 1.0, *midpoints, *(quantize(f) for f in midpoints)]


def _check_shape_against_oracle(simulator, kernels, state):
    """Check a shape's power and times against the scalar solve, bit for bit.

    At each of :func:`_oracle_clocks`, and at every clock the governor
    evaluates at the spec's lowest cap, which fills the shape's curve
    through the engine's own path.  Each application's compute and memory
    times as the shape solved them, its serial time, the elapsed time of
    the record the engine builds from them (the simulator is noise-free),
    the DRAM bandwidth fraction of its load and the record's bound must
    equal the scalar solve's.  Returns the shape.
    """
    assert simulator.noise.sigma == 0.0
    spec = simulator.spec
    powered = spec.mig_gpcs
    cap = spec.min_power_cap_w
    placements = simulator._build_placements(state, tuple(kernels))

    def solution(frequency, power, times):
        record = simulator._measure(shape, state, cap, times, frequency, power).record()
        return tuple(
            (c, m, s, r.elapsed_s, load[3], r.bound)
            for c, m, s, r, load in zip(
                *times, shape.serial, record.per_app, shape.loads(*times)
            )
        )

    def expect(frequency, power, times):
        want_power, want_solved = chip_power_at(simulator, placements, frequency, powered)
        assert _bits(power) == _bits(want_power)
        assert _bits(solution(frequency, power, times)) == _bits(tuple(
            (w.components.compute_s, w.components.memory_s, w.components.serial_s,
             w.elapsed_s, w.dram_bw_fraction, bound_of(w.components))
            for w in want_solved
        ))

    shape = simulator._new_shape(state, tuple(kernels))
    for frequency in _oracle_clocks(simulator):
        times = shape.solve(frequency)
        power = simulator.power_model.chip_power(shape.loads(*times), frequency, powered)
        expect(frequency, power, times)
    times, selected, power = simulator._govern(shape, cap, powered)
    assert times is shape.solved[selected]
    expect(selected, power, times)
    for frequency, power in shape.power.items():
        expect(frequency, power, shape.solve(frequency))
    return shape


@pytest.mark.parametrize("spec_name", _SPEC_NAMES)
def test_shape_tables_match_the_scalar_solve_on_every_state(spec_name):
    """Every enumerated state of 1-4 applications, each with its own group
    drawn round-robin from the suite and the compute-only kernel."""
    simulator = PerformanceSimulator(GPU_SPECS[spec_name], noise=no_noise())
    draw = 0
    pool_sizes = set()
    for n in (1, 2, 3, 4):
        for state in _STATES[(spec_name, n)]:
            kernels = [_ORACLE_KERNELS[(draw + 7 * i) % len(_ORACLE_KERNELS)] for i in range(n)]
            draw += 1
            shape = _check_shape_against_oracle(simulator, kernels, state)
            pool_sizes.update(len(pool[0]) for pool in shape.pools)
    if spec_name in ("a100", "h100"):
        assert {2, 3, 4} <= pool_sizes


def test_shape_tables_match_the_scalar_solve_on_three_member_and_unsettled_pools(monkeypatch):
    """A 3-member pool with a compute-only member, and a pair pool whose
    fixed point is still moving after the last damped step."""
    simulator = PerformanceSimulator(noise=no_noise())
    suite = DEFAULT_SUITE
    trio = (suite.get("stream"), _COMPUTE_ONLY_KERNEL, suite.get("srad"))
    shape = _check_shape_against_oracle(
        simulator, trio, PartitionState((2, 2, 3), MemoryOption.SHARED)
    )
    assert [len(pool[0]) for pool in shape.pools] == [3]

    pair = (suite.get("gaussian"), suite.get("stream"))
    shape = _check_shape_against_oracle(simulator, pair, CORUN_STATES[0])
    assert [len(pool[0]) for pool in shape.pools] == [2]
    # One more step still moves the times: the pool ran every step unsettled.
    settled = shape.solve(1.0)
    monkeypatch.setattr(
        engine_module, "_BANDWIDTH_ITERATIONS", engine_module._BANDWIDTH_ITERATIONS + 1
    )
    assert shape.solve(1.0) != settled


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
        got = numerics.builtin_sum(columns, compensated=compensated).tolist()
        assert [struct.pack("<d", v) for v in got] == [
            struct.pack("<d", reference(row)) for row in rows
        ]
    native = numerics.builtin_sum(columns).tolist()
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
        for state in states:
            if state.n_apps != len(kernels):
                continue
            for cap in power_caps:
                result = simulator.co_run(list(kernels), state, cap)
                measurements.append(
                    CoRunMeasurement(counters, state, float(cap), result.relative_performances)
                )
    return measurements


def _train(spec, plan):
    simulator = PerformanceSimulator(spec)
    model = OfflineTrainer(simulator, plan=plan).run()
    return json.dumps(model.to_dict()), list(simulator._run_cache)


def test_batched_training_builds_no_records_and_keeps_the_noise_input(monkeypatch):
    """The reduced general grid's sweeps read the RPerf columns alone, and
    every noise draw hashes exactly ``repr((seed, key))`` of its key."""
    spec = GPU_SPECS["a100"]
    plan = TrainingPlan.for_spec(spec, power_caps=power_caps_for_spec(spec)[-2:])
    built = []

    def counting(record):
        def construct(*args, **kwargs):
            built.append(record)
            return record(*args, **kwargs)

        return construct

    for name in ("RunResult", "CoRunResult"):
        monkeypatch.setattr(engine_module, name, counting(getattr(engine_module, name)))
    batches = []
    original_batch = PerformanceSimulator.co_run_batch

    def recording_batch(self, runs):
        batches.append((self, list(runs)))
        return original_batch(self, runs)

    monkeypatch.setattr(PerformanceSimulator, "co_run_batch", recording_batch)
    hashed = _recorded_sha256_inputs(monkeypatch)
    _train(spec, plan)
    assert built == []
    # One draw per application of every distinct run of the sweeps.
    expected = []
    for simulator, runs in batches:
        seed = simulator.noise.seed
        distinct = {
            simulator._run_key(tuple(kernels), state, cap): (kernels, state, cap)
            for kernels, state, cap in runs
        }
        expected += [
            repr((seed, (kernel.name, state.key(), index, round(cap, 3))))
            for kernels, state, cap in distinct.values()
            for index, kernel in enumerate(kernels)
        ]
    assert len(expected) > 1000 and sorted(hashed) == sorted(expected)


def _recorded_sha256_inputs(monkeypatch):
    """Every text the noise model hashes from now on, in order."""
    inputs = []

    class Recorder:
        @staticmethod
        def sha256(data):
            inputs.append(data.decode("utf-8"))
            return hashlib.sha256(data)

    monkeypatch.setattr(noise_module, "hashlib", Recorder)
    return inputs


@pytest.mark.parametrize("cap", [212.345, 150.0, 250, 212.3456, 199.9995, 1e-4])
def test_the_prefixed_noise_input_is_the_repr_of_the_key(monkeypatch, cap):
    hashed = _recorded_sha256_inputs(monkeypatch)
    model = noise_module.NoiseModel(sigma=0.03, seed=2022)
    state = PartitionState((2, 2, 3), MemoryOption.MIXED, gi_groups=(0, 0, 1))
    names = ("igemm4", "stream", "bfs")
    model.apply([1.0] * 3, [model.prefix(name, state.key()) for name in names], cap)
    assert hashed == [
        repr((2022, (name, state.key(), index, round(cap, 3))))
        for index, name in enumerate(names)
    ]


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
