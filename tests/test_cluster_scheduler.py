"""Tests for the co-scheduler and batch drains through the event loop."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import POLICY_NAMES
from repro.cluster.events import ClusterSimulator, SimulationConfig
from repro.cluster.job import JobState
from repro.cluster.node import ComputeNode
from repro.cluster.queue import JobQueue
from repro.cluster.scheduler import CoScheduler, SchedulerConfig
from repro.core import policies
from repro.core.workflow import PaperWorkflow, TrainingPlan
from repro.errors import ConfigurationError, SchedulingError
from repro.gpu.mig import CORUN_STATES, MemoryOption
from repro.profiling.database import ProfileDatabase
from repro.core.workflow import OnlineAllocator
from repro.sim.engine import PerformanceSimulator
from repro.sim.noise import no_noise
from repro.traces import Trace
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
def scheduler(workflow):
    config = SchedulerConfig(policy_name="problem1", power_cap_w=250.0, alpha=0.2, window_size=4)
    return CoScheduler(workflow.online, config)


@pytest.fixture()
def node(workflow):
    return ComputeNode(node_id=0, simulator=workflow.simulator)


class TestPlanning:
    def test_empty_queue_rejected(self, scheduler):
        with pytest.raises(SchedulingError):
            scheduler.plan_next(JobQueue())

    def test_profiled_pair_is_co_scheduled(self, scheduler):
        queue = JobQueue()
        queue.submit(DEFAULT_SUITE.get("igemm4"))
        queue.submit(DEFAULT_SUITE.get("stream"))
        plan = scheduler.plan_next(queue)
        assert len(plan.jobs) == 2
        assert plan.decision is not None
        assert plan.decision.state in CORUN_STATES

    def test_single_job_runs_alone(self, scheduler):
        queue = JobQueue()
        queue.submit(DEFAULT_SUITE.get("igemm4"))
        plan = scheduler.plan_next(queue)
        assert len(plan.jobs) == 1
        assert plan.decision is None

    def test_unprofiled_head_triggers_profile_run(self, workflow):
        allocator = OnlineAllocator(
            workflow.model,
            database=ProfileDatabase(),
            power_caps=(230.0, 250.0),
        )
        scheduler = CoScheduler(allocator, SchedulerConfig(policy_name="problem1", power_cap_w=250.0))
        queue = JobQueue()
        queue.submit(DEFAULT_SUITE.get("igemm4"))
        queue.submit(DEFAULT_SUITE.get("stream"))
        plan = scheduler.plan_next(queue)
        assert plan.reason == "profile run"
        assert len(plan.jobs) == 1

    def test_window_limits_partner_search(self, workflow):
        config = SchedulerConfig(policy_name="problem1", power_cap_w=250.0, window_size=2)
        scheduler = CoScheduler(workflow.online, config)
        queue = JobQueue()
        queue.submit(DEFAULT_SUITE.get("igemm4"))
        queue.submit(DEFAULT_SUITE.get("kmeans"))
        queue.submit(DEFAULT_SUITE.get("stream"))
        plan = scheduler.plan_next(queue)
        # With window 2 only kmeans is reachable as a partner.
        assert {job.name for job in plan.jobs} == {"igemm4", "kmeans"}

    def test_partner_choice_prefers_higher_predicted_objective(self, scheduler):
        queue = JobQueue()
        queue.submit(DEFAULT_SUITE.get("igemm4"))
        queue.submit(DEFAULT_SUITE.get("tdgemm"))
        queue.submit(DEFAULT_SUITE.get("stream"))
        plan = scheduler.plan_next(queue)
        # Pairing the Tensor kernel with the memory-bound kernel yields much
        # higher weighted speedup than pairing two Tensor kernels.
        assert {job.name for job in plan.jobs} == {"igemm4", "stream"}

    def test_head_with_no_feasible_partner_runs_alone(self, workflow, node):
        # Sharing the GPU, neither job keeps 99% of its exclusive performance.
        config = SchedulerConfig(policy_name="problem1", power_cap_w=250.0, alpha=0.99)
        scheduler = CoScheduler(workflow.online, config)
        queue = JobQueue()
        head = queue.submit(DEFAULT_SUITE.get("igemm4"))
        partner = queue.submit(DEFAULT_SUITE.get("stream"))
        plan = scheduler.plan_next(queue)
        assert plan.reason == "no feasible partner"
        assert plan.jobs == (head,)
        assert plan.decision is None
        finish, result = scheduler.dispatch(plan, queue, node, time=2.0)
        assert head.state is JobState.COMPLETED
        assert head.co_runners == ()
        assert result is None
        assert finish == 2.0 + workflow.simulator.reference_time(head.kernel)
        assert list(queue) == [partner]


class TestDispatch:
    def test_dispatch_pair_updates_jobs_and_node(self, scheduler, node):
        queue = JobQueue()
        queue.submit(DEFAULT_SUITE.get("igemm4"))
        queue.submit(DEFAULT_SUITE.get("stream"))
        plan = scheduler.plan_next(queue)
        finish, result = scheduler.dispatch(plan, queue, node, time=0.0)
        assert queue.empty
        assert finish > 0
        # The co-run the plan executed, at the plan's state and cap.
        assert result.n_apps == 2
        assert result.state == plan.decision.state
        assert result.power_cap_w == plan.decision.power_cap_w
        assert node.busy_until == pytest.approx(finish)
        first, second = plan.jobs
        assert first.co_runners == (second.job_id,)
        assert second.co_runners == (first.job_id,)
        for job in plan.jobs:
            assert job.state is JobState.COMPLETED
            assert job.finish_time is not None and job.finish_time <= finish + 1e-9

    def test_dispatch_respects_busy_node(self, scheduler, node):
        queue = JobQueue()
        queue.submit(DEFAULT_SUITE.get("igemm4"))
        plan = scheduler.plan_next(queue)
        node.busy_until = 100.0
        with pytest.raises(SchedulingError):
            scheduler.dispatch(plan, queue, node, time=0.0)

    def test_dispatch_solo_job(self, scheduler, node):
        queue = JobQueue()
        queue.submit(DEFAULT_SUITE.get("dgemm"))
        plan = scheduler.plan_next(queue)
        finish, result = scheduler.dispatch(plan, queue, node, time=5.0)
        job = plan.jobs[0]
        assert job.state is JobState.COMPLETED
        assert job.co_runners == ()
        assert result is None
        assert finish == pytest.approx(5.0 + job.runtime)


class TestBatchDrains:
    """Batches queued at ``t=0``, drained by the event loop."""

    def test_coscheduled_run_completes_all_jobs(self, workflow):
        simulator = ClusterSimulator.from_workflow(
            workflow,
            n_nodes=2,
            scheduler_config=SchedulerConfig(policy_name="problem1", power_cap_w=250.0, window_size=4),
        )
        report = simulator.run(
            Trace.all_at_zero(("igemm4", "stream", "srad", "needle", "hgemm", "lud"))
        )
        assert report.n_jobs == 6
        assert report.co_scheduled_jobs + report.exclusive_jobs == 6
        assert report.makespan_s > 0
        assert all(job.state is JobState.COMPLETED for job in report.jobs)

    def test_exclusive_baseline(self, workflow):
        names = ("igemm4", "stream")
        report = _exclusive_drain(workflow, 1, names)
        assert report.co_scheduled_jobs == 0
        assert report.exclusive_jobs == 2
        expected = sum(
            workflow.simulator.reference_time(DEFAULT_SUITE.get(n)) for n in names
        )
        assert report.makespan_s == pytest.approx(expected, rel=1e-6)

    def test_more_nodes_reduce_makespan(self, workflow):
        names = ("dgemm", "hotspot", "sgemm", "lavaMD")
        single = _exclusive_drain(workflow, 1, names)
        double = _exclusive_drain(workflow, 2, names)
        assert double.makespan_s < single.makespan_s

    def test_rerun_over_reused_nodes_matches_a_fresh_simulator(self, workflow):
        # Each run starts from idle nodes at their default cap, whatever
        # another simulator left on the same nodes.  Under a budget the
        # lone first job's exclusive run reads the node's cap.
        config = SchedulerConfig(policy_name="problem1", power_cap_w=250.0)
        budget = SimulationConfig(power_budget_w=400.0, repartition_latency_s=0.5)
        trace = Trace.from_arrivals([(0.0, "dgemm"), (0.5, "igemm4"), (0.5, "stream")])
        simulator = ClusterSimulator.from_workflow(
            workflow, n_nodes=2, scheduler_config=config, config=budget
        )
        first = simulator.run(trace)
        ClusterSimulator(
            workflow.online,
            list(simulator.nodes),
            config,
            SimulationConfig(power_budget_w=200.0),
        ).run(Trace.all_at_zero(("igemm4", "stream", "srad", "needle")))
        again = simulator.run(trace)
        fresh = ClusterSimulator.from_workflow(
            workflow, n_nodes=2, scheduler_config=config, config=budget
        ).run(trace)
        assert again == first
        assert fresh == first

    def test_rerun_with_another_suite_prices_its_own_kernels(self, workflow):
        # A name may resolve to another kernel on the next run, so an
        # exclusive run's energy must come from this run's kernel.
        renamed = DEFAULT_SUITE.subset(["stream"])
        renamed.register(
            dataclasses.replace(DEFAULT_SUITE.get("hgemm"), name="stream"), overwrite=True
        )
        trace = Trace.all_at_zero(("stream",))
        config = SchedulerConfig(group_size=1)
        simulator = ClusterSimulator.from_workflow(workflow, scheduler_config=config)
        simulator.run(trace)
        again = simulator.run(trace, suite=renamed)
        fresh = ClusterSimulator.from_workflow(workflow, scheduler_config=config).run(
            trace, suite=renamed
        )
        assert again.energy_wh == fresh.energy_wh
        assert again == fresh

    def test_report_summary_text(self, workflow):
        report = _exclusive_drain(workflow, 1, ("dgemm",))
        assert "makespan" in report.summary()


def _exclusive_drain(workflow, n_nodes, names):
    """The exclusive FIFO baseline: one job per GPU, all queued at ``t=0``."""
    return ClusterSimulator.from_workflow(
        workflow, n_nodes=n_nodes, scheduler_config=SchedulerConfig(group_size=1)
    ).run(Trace.all_at_zero(names))


class TestSchedulerConfigValidation:
    def test_defaults_are_valid(self):
        config = SchedulerConfig()
        assert config.window_size == 4
        assert config.group_size == 2

    def test_rejects_bad_window_size(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SchedulerConfig(window_size=0)

    def test_rejects_bad_group_size(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SchedulerConfig(group_size=0)

    @pytest.mark.parametrize("value", [2.5, float("nan"), float("inf"), True])
    @pytest.mark.parametrize("knob", ["window_size", "group_size"])
    def test_rejects_non_integer_sizes(self, knob, value):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match=knob):
            SchedulerConfig(**{knob: value})

    def test_numpy_integer_sizes_are_stored_as_int(self):
        config = SchedulerConfig(window_size=np.int64(3), group_size=np.int64(3))
        assert type(config.window_size) is int and config.window_size == 3
        assert type(config.group_size) is int and config.group_size == 3

    def test_rejects_unknown_policy_name(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError) as excinfo:
            SchedulerConfig(policy_name="problem3")
        assert "problem3" in str(excinfo.value)
        assert "problem1" in str(excinfo.value)

    def test_accepts_policy_aliases(self):
        # The service's requests accept the same two names, exactly.
        assert POLICY_NAMES is policies.POLICY_NAMES == ("problem1", "problem2")
        for name in POLICY_NAMES:
            SchedulerConfig(policy_name=name)
        for name in ("throughput", "energy-efficiency", "Problem2"):
            with pytest.raises(ConfigurationError):
                SchedulerConfig(policy_name=name)

    @pytest.mark.parametrize(
        "power_cap_w", [0.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_rejects_bad_power_cap(self, power_cap_w):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="finite and positive"):
            SchedulerConfig(power_cap_w=power_cap_w)

    def test_rejects_bad_alpha(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SchedulerConfig(alpha=1.0)
        with pytest.raises(ConfigurationError):
            SchedulerConfig(alpha=-0.1)


class TestPlanMemoization:
    def _scheduler(self, workflow):
        config = SchedulerConfig(
            policy_name="problem1", power_cap_w=250.0, alpha=0.2, window_size=4
        )
        return CoScheduler(workflow.online, config)

    def _pair_queue(self):
        queue = JobQueue()
        queue.submit(DEFAULT_SUITE.get("igemm4"))
        queue.submit(DEFAULT_SUITE.get("stream"))
        return queue

    def test_identical_window_reuses_the_cached_plan(self, workflow):
        scheduler = self._scheduler(workflow)
        first = scheduler.plan_next(self._pair_queue())
        second_queue = self._pair_queue()
        second = scheduler.plan_next(second_queue)
        assert scheduler.stats.plans_requested == 2
        assert scheduler.stats.plans_computed == 1
        assert scheduler.stats.plan_cache_hits == 1
        # Same decision object, re-bound to the live queue's job objects.
        assert second.decision is first.decision
        assert second.reason == first.reason
        assert [job.name for job in second.jobs] == [job.name for job in first.jobs]
        assert all(job in list(second_queue) for job in second.jobs)

    def test_repeated_plan_on_unchanged_queue_is_free(self, workflow):
        scheduler = self._scheduler(workflow)
        queue = self._pair_queue()
        first = scheduler.plan_next(queue)
        second = scheduler.plan_next(queue)
        assert second.jobs == first.jobs
        assert second.decision is first.decision
        # The plan LRU answers the repeat: one miss, then a hit.
        assert scheduler.stats.plans_computed == 1
        assert scheduler.stats.plan_cache_hits == 1

    def test_queue_mutation_invalidates_the_fast_path(self, workflow):
        scheduler = self._scheduler(workflow)
        queue = self._pair_queue()
        plan = scheduler.plan_next(queue)
        for job in plan.jobs:
            queue.remove(job)
        queue.submit(DEFAULT_SUITE.get("dgemm"))
        replanned = scheduler.plan_next(queue)
        assert [job.name for job in replanned.jobs] == ["dgemm"]

    def test_plan_memo_evicts_the_least_recently_used_window(
        self, workflow, monkeypatch
    ):
        monkeypatch.setattr("repro.cluster.scheduler._PLAN_MEMO_SIZE", 2)
        scheduler = self._scheduler(workflow)

        def plan(*names):
            queue = JobQueue()
            for name in names:
                queue.submit(DEFAULT_SUITE.get(name))
            scheduler.plan_next(queue)

        plan("igemm4", "stream")
        plan("hgemm", "bfs")
        plan("igemm4", "stream")  # hit: now the most recently used
        plan("srad", "needle")  # evicts ("hgemm", "bfs")
        assert scheduler.stats.plans_computed == 3
        plan("igemm4", "stream")
        assert scheduler.stats.plan_cache_hits == 2
        plan("hgemm", "bfs")
        assert scheduler.stats.plans_computed == 4

    def test_stats_as_dict_roundtrip(self, workflow, node):
        scheduler = self._scheduler(workflow)
        queue = self._pair_queue()
        plan = scheduler.plan_next(queue)
        scheduler.dispatch(plan, queue, node, time=0.0)
        stats = scheduler.stats.as_dict()
        assert stats == {
            "plans_requested": 1,
            "plans_computed": 1,
            "plan_cache_hits": 0,
            "dispatches": 1,
        }


class TestGroupSizeOne:
    def test_group_size_one_disables_co_location(self, workflow, node):
        """group_size=1 means one job per GPU: no pairing ever happens."""
        config = SchedulerConfig(
            policy_name="problem1", power_cap_w=250.0, group_size=1
        )
        scheduler = CoScheduler(workflow.online, config)
        queue = JobQueue()
        queue.submit(DEFAULT_SUITE.get("igemm4"))
        queue.submit(DEFAULT_SUITE.get("stream"))
        plan = scheduler.plan_next(queue)
        assert len(plan.jobs) == 1
        assert plan.decision is None
        assert "group_size=1" in plan.reason
        scheduler.dispatch(plan, queue, node, time=0.0)
        assert plan.jobs[0].co_runners == ()
