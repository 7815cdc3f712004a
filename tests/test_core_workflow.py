"""Tests for the offline/online workflow (Figure 7)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import DEFAULT_POWER_CAPS
from repro.core.model import HardwareStateKey, required_state_keys
from repro.core.policies import Problem1Policy, Problem2Policy
from repro.core.workflow import (
    OfflineTrainer,
    OnlineAllocator,
    PaperWorkflow,
    TrainingPlan,
    power_caps_for_spec,
)
from repro.errors import MissingProfileError, ProfileError
from repro.gpu.mig import CORUN_STATES, MemoryOption
from repro.gpu.spec import A100_SPEC
from repro.profiling.database import ProfileDatabase
from repro.profiling.profiler import ProfileCollector
from repro.sim.engine import PerformanceSimulator
from repro.sim.noise import no_noise
from repro.workloads.pairs import CORUN_PAIRS, corun_pair
from repro.workloads.suite import DEFAULT_SUITE


@pytest.fixture(scope="module")
def small_workflow():
    """A quickly-trained workflow on a reduced grid (for mutation tests)."""
    workflow = PaperWorkflow(
        simulator=PerformanceSimulator(noise=no_noise()),
        plan=TrainingPlan(
            gpc_counts=(3, 4),
            options=(MemoryOption.SHARED, MemoryOption.PRIVATE),
            power_caps=(230.0, 250.0),
            states=CORUN_STATES,
        ),
        power_caps=(230.0, 250.0),
    )
    workflow.train(training_pairs=CORUN_PAIRS[:6])
    return workflow


class TestTrainingPlan:
    def test_default_plan_matches_paper_grid(self):
        plan = TrainingPlan()
        assert (len(plan.gpc_counts), len(plan.options), len(plan.power_caps)) == (5, 2, 6)
        assert len(plan.pair_states) == 4

    def test_the_a100_cap_grid_is_table5(self):
        # One cap-grid rule serves every spec because, on the A100, it
        # gives the paper's Table 5 caps exactly.
        assert power_caps_for_spec(A100_SPEC) == DEFAULT_POWER_CAPS
        assert TrainingPlan.for_spec(A100_SPEC).power_caps == TrainingPlan().power_caps


class TestOfflineTrainer:
    def test_run_produces_fitted_model(self, small_workflow):
        model = small_workflow.model
        needed = required_state_keys((CORUN_STATES[0],), (250.0,), A100_SPEC)
        for key in needed:
            assert model.has_scalability(key)
            assert model.has_interference(key)

    def test_report_counts_runs(self, small_workflow):
        report = small_workflow.offline.trainer.last_report
        assert report is not None
        assert report.n_solo_measurements == 24 * 2 * 2 * 2
        assert report.n_corun_measurements == 6 * 4 * 2

    def test_trainer_with_custom_kernels(self):
        trainer = OfflineTrainer(
            simulator=PerformanceSimulator(noise=no_noise()),
            plan=TrainingPlan(
                gpc_counts=(3, 4),
                options=(MemoryOption.SHARED, MemoryOption.PRIVATE),
                power_caps=(250.0,),
            ),
        )
        kernels = [DEFAULT_SUITE.get(n) for n in ("dgemm", "stream", "hgemm", "kmeans", "srad")]
        model = trainer.run(training_kernels=kernels, training_pairs=[corun_pair("TI-MI2")])
        key = HardwareStateKey(4, 8, MemoryOption.SHARED, 250.0)
        assert model.has_scalability(key)


class TestOnlineAllocator:
    def test_decide_requires_profiles(self, small_workflow):
        allocator = OnlineAllocator(small_workflow.model, database=ProfileDatabase())
        with pytest.raises(MissingProfileError):
            allocator.decide(["igemm4", "stream"], Problem1Policy(power_cap_w=250))

    def test_ensure_profiled_without_collector(self, small_workflow):
        allocator = OnlineAllocator(small_workflow.model, database=ProfileDatabase())
        with pytest.raises(MissingProfileError):
            allocator.ensure_profiled(DEFAULT_SUITE.get("stream"))

    def test_ensure_profiled_with_collector(self, small_workflow):
        simulator = small_workflow.simulator
        allocator = OnlineAllocator(
            small_workflow.model,
            database=ProfileDatabase(),
            collector=ProfileCollector(simulator),
            power_caps=(230.0, 250.0),
        )
        allocator.ensure_profiled(DEFAULT_SUITE.get("igemm4"))
        allocator.ensure_profiled(DEFAULT_SUITE.get("stream"))
        assert allocator.database.has("igemm4")
        decision = allocator.decide(["igemm4", "stream"], Problem1Policy(power_cap_w=250.0))
        assert decision.state in CORUN_STATES

    def test_decide_matches_a_fresh_solve_after_refused_profile_changes(
        self, small_workflow
    ):
        # The decision memo assumes a name's counters never change; the
        # database makes that hold by refusing every way to change them.
        collector = ProfileCollector(small_workflow.simulator)
        allocator = OnlineAllocator(
            small_workflow.model,
            database=ProfileDatabase(),
            collector=collector,
            power_caps=(230.0, 250.0),
        )
        database = allocator.database
        names = ["igemm4", "stream"]
        policy = Problem2Policy(alpha=0.2, power_caps=(230.0, 250.0))
        collector.collect_into([DEFAULT_SUITE.get(name) for name in names], database)
        stored = database.get("stream")

        def fresh_solve():
            return allocator.allocator.solve(
                [database.get(name).counters for name in names],
                policy,
                states=allocator.candidate_states_for(2, policy.candidate_power_caps()),
            )

        first = allocator.decide(names, policy)
        assert first == fresh_solve()
        impostor = dataclasses.replace(DEFAULT_SUITE.get("igemm4"), name="stream")
        with pytest.raises(ProfileError):
            database.add(collector.collect(impostor))
        assert allocator.decide(names, policy) == fresh_solve() == first
        collector.collect_into([impostor, DEFAULT_SUITE.get("igemm4")], database)
        assert database.get("stream") is stored
        assert allocator.decide(names, policy) == fresh_solve() == first

    def test_ensure_profiled_is_idempotent(self, small_workflow):
        allocator = small_workflow.online
        before = allocator.database.get("stream")
        allocator.ensure_profiled(DEFAULT_SUITE.get("stream"))
        assert allocator.database.get("stream") is before


class TestPaperWorkflow:
    def test_lazy_training_on_model_access(self):
        workflow = PaperWorkflow(
            simulator=PerformanceSimulator(noise=no_noise()),
            plan=TrainingPlan(
                gpc_counts=(4, 3),
                options=(MemoryOption.SHARED, MemoryOption.PRIVATE),
                power_caps=(250.0,),
            ),
            power_caps=(250.0,),
        )
        # No explicit train() call: accessing the model must trigger it.
        assert workflow.model is not None
        assert workflow.online is not None

    def test_decisions_after_training(self, small_workflow):
        decision1 = small_workflow.decide_problem1(["igemm4", "stream"], power_cap_w=250.0)
        decision2 = small_workflow.decide_problem2(["igemm4", "stream"], alpha=0.2)
        assert decision1.power_cap_w == 250.0
        assert decision2.power_cap_w in (230.0, 250.0)

    def test_all_suite_apps_are_profiled_after_training(self, small_workflow):
        database = small_workflow.online.database
        for name in DEFAULT_SUITE.names():
            assert database.has(name)

    def test_suite_accessor(self, small_workflow):
        assert small_workflow.suite is DEFAULT_SUITE
