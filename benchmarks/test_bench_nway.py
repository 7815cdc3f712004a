"""Micro-benchmarks of the N-way allocator: scalar vs batched candidate
evaluation and the online allocator's decision memo, reported in
decisions/second.

The batched path must be measurably faster than per-candidate evaluation on
the enlarged N-way grid — that speedup is what makes spec-derived candidate
spaces (hundreds of states instead of Table 5's four) affordable inside a
scheduling loop.
"""

from __future__ import annotations

import time

import pytest

from repro.core.optimizer import ResourcePowerAllocator
from repro.core.policies import Problem2Policy
from repro.core.workflow import PaperWorkflow, TrainingPlan
from repro.gpu.spec import A100_SPEC
from repro.sim.engine import PerformanceSimulator
from repro.sim.noise import no_noise
from repro.workloads.groups import corun_group

from conftest import emit


@pytest.fixture(scope="module")
def nway_workflow():
    """A workflow trained on the full spec-derived grid (supports N-way)."""
    workflow = PaperWorkflow(
        simulator=PerformanceSimulator(noise=no_noise()),
        plan=TrainingPlan.for_spec(A100_SPEC),
    )
    workflow.train()
    return workflow


@pytest.fixture(scope="module")
def group_counters(nway_workflow):
    group = corun_group("TI-CI-MI1")
    database = nway_workflow.online.database
    return [database.get(name).counters for name in group.apps]


@pytest.fixture(scope="module")
def group_states(nway_workflow):
    return nway_workflow.online.candidate_states_for(3)


def _decisions_per_second(allocator, counters, states, policy, repeat=20):
    start = time.perf_counter()
    for _ in range(repeat):
        allocator.solve(counters, policy, states=states)
    elapsed = time.perf_counter() - start
    return repeat / elapsed


def test_bench_nway_scalar_vs_batched(nway_workflow, group_counters, group_states):
    """Batched grid evaluation must beat the scalar path on the N-way grid."""
    policy = Problem2Policy(alpha=0.05)
    n_candidates = len(group_states) * len(policy.candidate_power_caps())
    scalar_alloc = ResourcePowerAllocator(
        nway_workflow.model, candidate_states=group_states, batch_threshold=10**9
    )
    batched_alloc = ResourcePowerAllocator(
        nway_workflow.model, candidate_states=group_states, batch_threshold=0
    )
    # Warm up (first call pays numpy allocation paths), then measure.
    scalar_alloc.solve(group_counters, policy)
    batched_alloc.solve(group_counters, policy)
    scalar_rate = _decisions_per_second(scalar_alloc, group_counters, group_states, policy)
    batched_rate = _decisions_per_second(batched_alloc, group_counters, group_states, policy)
    emit(
        "N-way allocator throughput (3-app group)",
        f"candidate grid: {n_candidates} (S, P) points\n"
        f"scalar : {scalar_rate:8.1f} decisions/s\n"
        f"batched: {batched_rate:8.1f} decisions/s\n"
        f"speedup: {batched_rate / scalar_rate:.2f}x",
    )
    assert batched_rate > scalar_rate, (
        f"batched evaluation ({batched_rate:.1f}/s) should beat "
        f"scalar ({scalar_rate:.1f}/s) on a {n_candidates}-candidate grid"
    )


def test_bench_nway_batched_solve(benchmark, nway_workflow, group_counters, group_states):
    """Steady-state batched N-way decision latency (every call solves)."""
    policy = Problem2Policy(alpha=0.05)
    allocator = ResourcePowerAllocator(
        nway_workflow.model, candidate_states=group_states, batch_threshold=0
    )
    decision = benchmark(lambda: allocator.solve(group_counters, policy, states=group_states))
    assert decision.state.n_apps == 3


def test_bench_nway_cached_decision(benchmark, nway_workflow):
    """A decision-memo hit answers the same request orders of magnitude faster."""
    policy = Problem2Policy(alpha=0.05)
    online = nway_workflow.online
    apps = corun_group("TI-CI-MI1").apps
    first = online.decide(apps, policy)  # prime
    decision = benchmark(lambda: online.decide(apps, policy))
    assert decision is first
    assert decision.state.n_apps == 3
