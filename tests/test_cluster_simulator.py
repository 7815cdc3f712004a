"""Tests for the event-driven cluster simulator.

The key property is parity: an all-at-t=0 trace replayed through the event
loop must reproduce the schedule of the first-free-node reference loop in
``batch_oracle.py`` exactly, co-scheduled and exclusive.  On top of that
the online behaviours — arrivals over time, MIG repartitioning latency, and
power-budget reallocation — are exercised separately.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from batch_oracle import drain_batch
from repro.cluster.events import (
    ClusterSimulator,
    CompletionEvent,
    EventHeap,
    SimulationConfig,
)
from repro.cluster.scheduler import SchedulerConfig
from repro.core.workflow import PaperWorkflow, TrainingPlan
from repro.errors import ConfigurationError, SimulationError, TraceError
from repro.gpu.mig import MemoryOption
from repro.sim.engine import PerformanceSimulator
from repro.sim.noise import no_noise
from repro.traces import Trace, poisson_trace
from repro.workloads.suite import DEFAULT_SUITE


@pytest.fixture(scope="module")
def workflow():
    wf = PaperWorkflow(
        simulator=PerformanceSimulator(noise=no_noise()),
        plan=TrainingPlan(
            gpc_counts=(3, 4),
            options=(MemoryOption.SHARED, MemoryOption.PRIVATE),
            power_caps=(230.0, 250.0),
        ),
        power_caps=(230.0, 250.0),
    )
    wf.train()
    return wf


@pytest.fixture()
def scheduler_config():
    return SchedulerConfig(
        policy_name="problem1", power_cap_w=230.0, alpha=0.2, window_size=4
    )


JOB_NAMES = [
    "igemm4", "stream", "srad", "needle", "hgemm", "lud",
    "dgemm", "kmeans", "fp16gemm", "leukocyte",
]


class TestBatchParity:
    @pytest.mark.parametrize("group_size", [2, 1], ids=["co-scheduled", "exclusive"])
    @pytest.mark.parametrize("n_nodes", [1, 2, 3])
    def test_all_at_zero_trace_matches_the_reference_loop(
        self, workflow, scheduler_config, n_nodes, group_size
    ):
        config = replace(scheduler_config, group_size=group_size)
        kernels = [DEFAULT_SUITE.get(name) for name in JOB_NAMES]
        reference = drain_batch(workflow, n_nodes, config, kernels)

        report = ClusterSimulator.from_workflow(
            workflow, n_nodes=n_nodes, scheduler_config=config
        ).run(Trace.all_at_zero(JOB_NAMES))

        def schedule(jobs):
            return sorted(
                (job.job_id, job.name, job.start_time, job.finish_time, job.co_runners)
                for job in jobs
            )

        assert schedule(report.jobs) == schedule(reference)
        assert report.makespan_s == max(job.finish_time for job in reference)
        assert report.turnaround.mean_s == pytest.approx(
            sum(job.turnaround_time for job in reference) / len(reference), rel=1e-12
        )
        if group_size == 1:
            assert report.co_scheduled_jobs == 0
        else:
            assert report.co_scheduled_jobs > 0


class TestOnlineArrivals:
    def test_jobs_wait_for_their_arrival_time(self, workflow, scheduler_config):
        trace = Trace.from_arrivals(
            [(0.0, "stream"), (10.0, "dgemm"), (20.0, "hgemm")]
        )
        simulator = ClusterSimulator.from_workflow(
            workflow, n_nodes=2, scheduler_config=scheduler_config
        )
        report = simulator.run(trace)
        by_name = {job.name: job for job in report.jobs}
        assert by_name["dgemm"].start_time >= 10.0
        assert by_name["hgemm"].start_time >= 20.0
        assert report.makespan_s >= 20.0
        # An idle cluster dispatches arrivals immediately: no waiting.
        assert report.wait.max_s == pytest.approx(0.0, abs=1e-12)

    def test_poisson_trace_completes_every_job(self, workflow, scheduler_config):
        trace = poisson_trace(1.0, duration_s=30.0, seed=5)
        simulator = ClusterSimulator.from_workflow(
            workflow, n_nodes=2, scheduler_config=scheduler_config
        )
        report = simulator.run(trace)
        assert report.n_jobs == trace.n_jobs
        assert report.sustained_throughput_jobs_per_s > 0
        assert 0.0 < report.utilization <= 1.0
        assert report.energy_wh > 0.0
        assert report.wait.p50_s <= report.wait.p95_s <= report.wait.p99_s

    def test_saturated_cluster_builds_queue(self, workflow, scheduler_config):
        # One node and a burst of simultaneous arrivals: later jobs must wait.
        trace = Trace.all_at_zero(JOB_NAMES)
        simulator = ClusterSimulator.from_workflow(
            workflow, n_nodes=1, scheduler_config=scheduler_config
        )
        report = simulator.run(trace)
        assert report.peak_queue_length == len(JOB_NAMES)
        assert report.wait.max_s > 0.0

    def test_profile_runs_counted(self, workflow, scheduler_config):
        suite = DEFAULT_SUITE.subset(["stream", "dgemm"])
        fresh = replace(DEFAULT_SUITE.get("stream"), name="freshapp")
        suite.register(fresh)
        trace = Trace.from_arrivals([(0.0, "freshapp"), (0.0, "stream")])
        simulator = ClusterSimulator.from_workflow(
            workflow, n_nodes=1, scheduler_config=scheduler_config
        )
        report = simulator.run(trace, suite=suite)
        assert report.profile_runs == 1

    def test_empty_trace_rejected(self, workflow):
        simulator = ClusterSimulator.from_workflow(workflow)
        with pytest.raises(SimulationError):
            simulator.run(Trace(entries=()))

    def test_unknown_app_rejected(self, workflow):
        simulator = ClusterSimulator.from_workflow(workflow)
        with pytest.raises(TraceError):
            simulator.run(Trace.all_at_zero(["nonesuch"]))

    def test_nodes_required(self, workflow):
        with pytest.raises(ConfigurationError):
            ClusterSimulator(allocator=workflow.online, nodes=[])


def _from_allocator(workflow, n_nodes):
    # The allocator is not used to build the nodes, so none is needed.
    return ClusterSimulator.from_allocator(None, PerformanceSimulator(), n_nodes=n_nodes)


def _from_workflow(workflow, n_nodes):
    return ClusterSimulator.from_workflow(workflow, n_nodes=n_nodes)


@pytest.mark.parametrize("build", [_from_allocator, _from_workflow])
class TestNodeCount:
    @pytest.mark.parametrize("n_nodes", [1.5, math.nan, math.inf, True])
    def test_non_integer_counts_rejected(self, workflow, build, n_nodes):
        # 1.5 and NaN used to die in range() with a raw TypeError, and
        # True built a one-node cluster.
        with pytest.raises(ConfigurationError, match="n_nodes"):
            build(workflow, n_nodes)

    def test_numpy_integer_count_builds_that_many_nodes(self, workflow, build):
        simulator = build(workflow, np.int64(2))
        assert [node.node_id for node in simulator.nodes] == [0, 1]


class TestRepartitionLatency:
    def test_layout_changes_incur_latency(self, workflow, scheduler_config):
        trace = Trace.all_at_zero(JOB_NAMES)
        free = ClusterSimulator.from_workflow(
            workflow, n_nodes=2, scheduler_config=scheduler_config
        ).run(trace)
        priced = ClusterSimulator.from_workflow(
            workflow,
            n_nodes=2,
            scheduler_config=scheduler_config,
            config=SimulationConfig(repartition_latency_s=5.0),
        ).run(trace)
        assert priced.repartitions > 0
        # The latency scales with the GPU Instances created/destroyed, not
        # with a flat per-change constant.
        assert priced.mig_instance_changes >= priced.repartitions
        assert priced.repartition_time_s == pytest.approx(
            priced.mig_instance_changes * 5.0
        )
        assert priced.makespan_s > free.makespan_s

    def test_stable_layout_pays_once_per_node(self, workflow):
        # group_size=1 makes every dispatch the exclusive layout, so only
        # the first dispatch of each node reconfigures.
        config = SchedulerConfig(group_size=1)
        trace = Trace.all_at_zero(["stream", "dgemm", "hgemm", "lud"])
        report = ClusterSimulator.from_workflow(
            workflow,
            n_nodes=2,
            scheduler_config=config,
            config=SimulationConfig(repartition_latency_s=1.0),
        ).run(trace)
        assert report.repartitions == 2

    def test_same_gi_multiset_reconfigures_for_free(self, workflow):
        """S1 -> S2 only re-binds jobs onto the existing full-chip GI, so
        no repartition latency is charged and jobs on untouched instances
        effectively keep running."""
        from repro.cluster.events.simulator import ClusterSimulator as CS

        assert CS._instance_changes((7,), (7,)) == 0
        # Multiset diff: {3,4} -> {4,3} is free, {3,4} -> {2,2,3} swaps one
        # 4-GPC GI for two 2-GPC GIs (3 changes).
        assert CS._instance_changes((3, 4), (4, 3)) == 0
        assert CS._instance_changes((3, 4), (2, 2, 3)) == 3
        # Toggling MIG mode on/off costs one unit on top of the GI diff.
        assert CS._instance_changes((), (3, 4)) == 3
        assert CS._instance_changes((3, 4), ()) == 3
        # A node's first dispatch charges the full bring-up.
        assert CS._instance_changes(None, (3, 4)) == 2
        assert CS._instance_changes(None, ()) == 1


class TestPowerBudget:
    def test_budget_rebalances_and_caps_allocation(self, workflow, scheduler_config):
        trace = Trace.all_at_zero(JOB_NAMES)
        budget = 460.0
        report = ClusterSimulator.from_workflow(
            workflow,
            n_nodes=2,
            scheduler_config=scheduler_config,
            config=SimulationConfig(power_budget_w=budget),
        ).run(trace)
        assert report.power_rebalances > 0
        assert report.final_power_allocation_w
        assert sum(report.final_power_allocation_w.values()) <= budget + 1e-9

    def test_tight_budget_slows_the_cluster_down(self, workflow, scheduler_config):
        trace = Trace.all_at_zero(JOB_NAMES)
        unlimited = ClusterSimulator.from_workflow(
            workflow, n_nodes=2, scheduler_config=scheduler_config
        ).run(trace)
        spec = workflow.simulator.spec
        tight = ClusterSimulator.from_workflow(
            workflow,
            n_nodes=2,
            scheduler_config=scheduler_config,
            config=SimulationConfig(power_budget_w=2 * spec.min_power_cap_w),
        ).run(trace)
        assert tight.makespan_s > unlimited.makespan_s

    def test_heap_holds_only_arrivals_and_completions(
        self, workflow, scheduler_config, monkeypatch
    ):
        # Repartitions and rebalances are applied and counted in place;
        # the only events scheduled after the trace loads are completions.
        pushed = []
        push = EventHeap.push

        def recording_push(heap, event):
            pushed.append(type(event))
            push(heap, event)

        monkeypatch.setattr(EventHeap, "push", recording_push)
        simulator = ClusterSimulator.from_workflow(
            workflow,
            n_nodes=2,
            scheduler_config=scheduler_config,
            config=SimulationConfig(repartition_latency_s=1.0, power_budget_w=460.0),
        )
        report = simulator.run(poisson_trace(2.0, n_jobs=30, seed=5))
        assert report.repartitions > 0
        assert report.power_rebalances > 0
        assert pushed == [CompletionEvent] * simulator.scheduler.stats.dispatches

    def test_budget_below_cluster_minimum_rejected(self, workflow):
        spec = workflow.simulator.spec
        with pytest.raises(ConfigurationError):
            ClusterSimulator.from_workflow(
                workflow,
                n_nodes=4,
                config=SimulationConfig(
                    power_budget_w=3 * spec.min_power_cap_w
                ),
            )

    def test_invalid_config_values_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(repartition_latency_s=-1.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(power_budget_w=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_config_values_rejected(self, value):
        # NaN used to slip past every sign check: a NaN budget replayed
        # with its rebalances counted but every node kept its full cap.
        with pytest.raises(ConfigurationError, match="finite"):
            SimulationConfig(power_budget_w=value)
        with pytest.raises(ConfigurationError, match="finite"):
            SimulationConfig(repartition_latency_s=value)
