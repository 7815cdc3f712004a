"""Property-based tests for MIG accounting, metrics, and the model layer."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from placement_oracle import place_on_chip
from repro.core.metrics import fairness, geometric_mean, weighted_speedup
from repro.core.model import HardwareStateKey, LinearPerfModel
from repro.core.policies import Problem2Policy
from repro.gpu.mig import (
    GPC_TO_MEM_SLICES,
    VALID_INSTANCE_SIZES,
    MemoryOption,
    PartitionState,
)
from repro.gpu.spec import A100_SPEC
from repro.sim.counters import CounterVector

# ----------------------------------------------------------------------
# MIG accounting invariants
# ----------------------------------------------------------------------
valid_two_app_states = st.builds(
    PartitionState,
    gpc_allocations=st.tuples(
        st.sampled_from(VALID_INSTANCE_SIZES), st.sampled_from(VALID_INSTANCE_SIZES)
    ),
    option=st.sampled_from([MemoryOption.PRIVATE, MemoryOption.SHARED]),
).filter(
    lambda state: state.total_gpcs <= A100_SPEC.mig_gpcs
    and (
        state.option is MemoryOption.SHARED
        or sum(GPC_TO_MEM_SLICES[g] for g in state.gpc_allocations) <= A100_SPEC.n_mem_slices
    )
)


@given(valid_two_app_states)
@settings(max_examples=60, deadline=None)
def test_placement_never_overcommits_resources(state):
    """Whatever valid state is placed, GPC and slice ownership stays within
    the chip's physical resources and one CI exists per application."""
    gis = place_on_chip(A100_SPEC, state)
    hosted = sorted(i for _, _, members in gis for i in members)
    assert hosted == list(range(state.n_apps))
    assert sum(gpcs for gpcs, _, _ in gis) <= A100_SPEC.mig_gpcs
    assert sum(slices for _, slices, _ in gis) <= A100_SPEC.n_mem_slices
    for gpcs, _, members in gis:
        assert sum(state.gpc_allocations[i] for i in members) <= gpcs


@given(valid_two_app_states)
@settings(max_examples=60, deadline=None)
def test_partition_state_allocations_are_consistent(state):
    allocations = state.allocations(A100_SPEC)
    assert len(allocations) == state.n_apps
    for index, allocation in enumerate(allocations):
        assert allocation.gpcs == state.gpc_allocations[index]
        if state.option is MemoryOption.SHARED:
            assert allocation.mem_slices == A100_SPEC.n_mem_slices
        else:
            assert allocation.mem_slices == GPC_TO_MEM_SLICES[allocation.gpcs]
    assert state.swapped().swapped().key() == state.key()


# ----------------------------------------------------------------------
# Metric invariants
# ----------------------------------------------------------------------
rperf_lists = st.lists(st.floats(min_value=0.01, max_value=1.2), min_size=1, max_size=4)


@given(rperf_lists)
@settings(max_examples=80)
def test_metric_relationships(rperfs):
    ws = weighted_speedup(rperfs)
    fair = fairness(rperfs)
    # The mean can exceed the max by a rounding ulp when all values are
    # equal (summing then dividing re-rounds), hence the 1e-9 slack.
    mean = ws / len(rperfs)
    assert fair <= mean + 1e-9
    assert mean <= max(rperfs) + 1e-9
    assert ws <= len(rperfs) * max(rperfs) + 1e-9
    assert Problem2Policy().objective(ws, 200.0) == ws / 200.0


@given(rperf_lists, st.floats(min_value=1.0, max_value=400.0))
@settings(max_examples=60)
def test_energy_efficiency_scales_inversely_with_power(rperfs, power):
    import math

    efficiency = Problem2Policy().objective(weighted_speedup(rperfs), power)
    assert math.isclose(efficiency * power, weighted_speedup(rperfs), rel_tol=1e-12)


@given(st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=1, max_size=10))
@settings(max_examples=60)
def test_geometric_mean_bounded_by_extremes(values):
    mean = geometric_mean(values)
    assert min(values) - 1e-12 <= mean <= max(values) + 1e-12


# ----------------------------------------------------------------------
# Model-layer invariants
# ----------------------------------------------------------------------
counter_values = st.floats(min_value=0.0, max_value=100.0)
counter_vectors = st.builds(
    CounterVector,
    compute_throughput=st.floats(min_value=1.0, max_value=100.0),
    memory_throughput=counter_values,
    dram_throughput=counter_values,
    l2_hit_rate=counter_values,
    occupancy=counter_values,
    tensor_mixed=st.floats(min_value=0.0, max_value=50.0),
    tensor_double=st.floats(min_value=0.0, max_value=25.0),
    tensor_int=st.floats(min_value=0.0, max_value=25.0),
)


@given(
    counter_vectors,
    st.lists(st.floats(min_value=-0.5, max_value=0.8), min_size=6, max_size=6),
)
@settings(max_examples=60)
def test_model_predictions_are_non_negative_and_deterministic(counters, coefficients):
    model = LinearPerfModel()
    key = HardwareStateKey(4, 8, MemoryOption.SHARED, 250.0)
    model.set_scalability_coefficients(key, np.array(coefficients))
    first = model.predict_solo(counters, key)
    second = model.predict_solo(counters, key)
    assert first == second
    assert first >= 0.0


@given(counter_vectors)
@settings(max_examples=40)
def test_model_serialization_roundtrip_preserves_predictions(counters):
    model = LinearPerfModel()
    key = HardwareStateKey(3, 4, MemoryOption.PRIVATE, 190.0)
    rng = np.random.default_rng(0)
    model.set_scalability_coefficients(key, rng.normal(size=6))
    model.set_interference_coefficients(key, rng.normal(size=3))
    rebuilt = LinearPerfModel.from_dict(model.to_dict())
    assert rebuilt.predict_rperf(counters, key, [counters]) == (
        model.predict_rperf(counters, key, [counters])
    )
