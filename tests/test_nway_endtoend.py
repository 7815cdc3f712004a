"""End-to-end N-way co-location: simulate, allocate, and dispatch 3- and
4-application groups through the CoScheduler on the A100 and H100 specs."""

from __future__ import annotations

import pytest

from repro.cluster.events import ClusterSimulator
from repro.cluster.job import JobState
from repro.cluster.node import ComputeNode
from repro.cluster.queue import JobQueue
from repro.cluster.scheduler import CoScheduler, SchedulerConfig
from repro.core.workflow import PaperWorkflow, TrainingPlan, power_caps_for_spec
from repro.gpu.mig import MemoryOption
from repro.gpu.spec import A100_SPEC, H100_SPEC
from repro.sim.engine import PerformanceSimulator
from repro.sim.noise import no_noise
from repro.traces import Trace
from repro.workloads.groups import CORUN_QUADS, CORUN_TRIPLES, groups_of_size
from repro.workloads.suite import DEFAULT_SUITE

#: Two caps keep the spec-wide training grid fast while still exercising the
#: power dimension of the candidate space.
_N_CAPS = 2


def _nway_workflow(spec):
    caps = power_caps_for_spec(spec)[-_N_CAPS:]
    workflow = PaperWorkflow(
        simulator=PerformanceSimulator(spec, noise=no_noise()),
        plan=TrainingPlan.for_spec(spec, power_caps=caps),
        power_caps=caps,
    )
    workflow.train()
    return workflow


@pytest.fixture(scope="module")
def a100_workflow():
    return _nway_workflow(A100_SPEC)


@pytest.fixture(scope="module")
def h100_workflow():
    return _nway_workflow(H100_SPEC)


def _workflow(request, spec_name):
    return request.getfixturevalue(f"{spec_name}_workflow")


@pytest.mark.parametrize("spec_name", ("a100", "h100"))
@pytest.mark.parametrize("group", CORUN_TRIPLES[:3] + CORUN_QUADS[:2])
class TestGroupSimulateAndAllocate:
    def test_group_is_allocated_and_simulated(self, request, spec_name, group):
        workflow = _workflow(request, spec_name)
        decision = workflow.decide_problem2(list(group.apps), alpha=0.05)
        assert decision.state.n_apps == group.n_apps
        assert len(decision.predicted_rperfs) == group.n_apps
        assert decision.predicted_fairness > 0.05
        # The chosen state is realizable and simulable on this spec.
        result = workflow.simulator.co_run(
            list(group.kernels()), decision.state, decision.power_cap_w
        )
        assert result.n_apps == group.n_apps
        assert all(r.relative_performance > 0 for r in result.per_app)


@pytest.mark.parametrize("spec_name", ("a100", "h100"))
class TestGroupCandidateSpace:
    def test_candidate_space_includes_all_three_options(self, request, spec_name):
        workflow = _workflow(request, spec_name)
        states = workflow.online.candidate_states_for(3)
        options = {state.option for state in states}
        assert options == {
            MemoryOption.PRIVATE,
            MemoryOption.SHARED,
            MemoryOption.MIXED,
        }
        spec = workflow.simulator.spec
        for state in states:
            state.validate_against(spec)

    def test_pairs_keep_the_paper_candidate_states(self, request, spec_name):
        workflow = _workflow(request, spec_name)
        # The workflow was configured without explicit pair states, so the
        # spec-derived pair enumeration applies; every state must be a pair.
        states = workflow.online.candidate_states_for(2)
        assert states and all(state.n_apps == 2 for state in states)


@pytest.mark.parametrize("spec_name", ("a100", "h100"))
@pytest.mark.parametrize("group_size", (3, 4))
class TestGroupScheduling:
    def test_scheduler_dispatches_full_group(self, request, spec_name, group_size):
        workflow = _workflow(request, spec_name)
        config = SchedulerConfig(
            window_size=group_size + 1,
            group_size=group_size,
            policy_name="problem2",
            alpha=0.0,
        )
        scheduler = CoScheduler(workflow.online, config)
        queue = JobQueue()
        names = ("igemm4", "stream", "bfs", "kmeans", "needle")[: group_size + 1]
        for name in names:
            queue.submit(DEFAULT_SUITE.get(name))
        plan = scheduler.plan_next(queue)
        assert plan.decision is not None
        assert len(plan.jobs) == group_size
        assert plan.decision.state.n_apps == group_size

        node = ComputeNode(node_id=0, spec=workflow.simulator.spec, simulator=workflow.simulator)
        finish, result = scheduler.dispatch(plan, queue, node, time=0.0)
        assert finish > 0
        assert result.n_apps == group_size
        for job in plan.jobs:
            assert job.state is JobState.COMPLETED
            assert len(job.co_runners) == group_size - 1
            assert set(job.co_runners) == {
                other.job_id for other in plan.jobs if other is not job
            }


@pytest.mark.parametrize("spec_name", ("a100", "h100"))
class TestGroupManagerDrain:
    def test_manager_drains_queue_with_groups(self, request, spec_name):
        workflow = _workflow(request, spec_name)
        simulator = ClusterSimulator.from_workflow(
            workflow,
            n_nodes=1,
            scheduler_config=SchedulerConfig(
                window_size=4, group_size=3, policy_name="problem2", alpha=0.0
            ),
        )
        report = simulator.run(
            Trace.all_at_zero(("igemm4", "stream", "bfs", "sgemm", "lud", "kmeans"))
        )
        assert report.n_jobs == 6
        assert all(job.state is JobState.COMPLETED for job in report.jobs)
        # At least one dispatched group exceeded the pair limit.
        group_sizes = {len(job.co_runners) + 1 for job in report.jobs if job.co_runners}
        assert max(group_sizes, default=1) >= 3


@pytest.mark.parametrize("group_size", (3, 4))
def test_spec_wide_model_serves_the_configured_group_size(a100_workflow, group_size):
    simulator = ClusterSimulator.from_workflow(
        a100_workflow,
        scheduler_config=SchedulerConfig(group_size=group_size, alpha=0.0),
    )
    report = simulator.run(Trace.all_at_zero(("igemm4", "stream")))
    assert report.max_group_size == group_size


class TestSeedPairBehaviourUnchanged:
    def test_default_config_still_schedules_pairs(self, a100_workflow):
        """group_size defaults to 2: plans are identical to the seed's."""
        scheduler = CoScheduler(a100_workflow.online, SchedulerConfig(alpha=0.0))
        queue = JobQueue()
        for name in ("igemm4", "stream", "bfs"):
            queue.submit(DEFAULT_SUITE.get(name))
        plan = scheduler.plan_next(queue)
        assert plan.decision is not None
        assert len(plan.jobs) == 2


def test_groups_of_size_helper():
    assert all(group.n_apps == 3 for group in groups_of_size(3))
    assert all(group.n_apps == 4 for group in groups_of_size(4))
    assert len(groups_of_size(2)) == 18


class TestOffGridPowerCap:
    def test_off_grid_cap_raises_catchable_error_in_decide(self, h100_workflow):
        """A Problem-1 cap outside the trained grid must raise the catchable
        InfeasibleProblemError (not NotFittedError) with an actionable
        message naming the fitted caps."""
        from repro.core.policies import Problem1Policy
        from repro.errors import InfeasibleProblemError

        with pytest.raises(InfeasibleProblemError) as excinfo:
            h100_workflow.online.decide(
                ["igemm4", "stream"], Problem1Policy(power_cap_w=230.0)
            )
        assert "fitted caps" in str(excinfo.value)

    def test_scheduler_rejects_off_grid_cap_on_first_plan(self, h100_workflow):
        """A scheduler whose Problem-1 cap the model cannot evaluate must
        fail loudly at planning time instead of silently never
        co-scheduling anything.  (Construction itself stays legal so a
        scheduler can be wired up before its model is trained.)"""
        from repro.errors import ConfigurationError

        simulator = ClusterSimulator.from_workflow(
            h100_workflow,
            scheduler_config=SchedulerConfig(policy_name="problem1"),  # 230 W default
        )
        with pytest.raises(ConfigurationError) as excinfo:
            simulator.run(Trace.all_at_zero(("igemm4", "stream")))
        assert "trained grid" in str(excinfo.value)

    def test_group_size_one_skips_the_cap_check(self, h100_workflow):
        """With co-location disabled the Problem-1 cap is never used, so an
        off-grid value must not block construction."""
        simulator = ClusterSimulator.from_workflow(
            h100_workflow,
            scheduler_config=SchedulerConfig(policy_name="problem1", group_size=1),
        )
        report = simulator.run(Trace.all_at_zero(("igemm4", "stream")))
        assert report.co_scheduled_jobs == 0
        assert report.exclusive_jobs == 2
