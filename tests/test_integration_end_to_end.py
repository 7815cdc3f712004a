"""Integration tests: the full paper pipeline, end to end.

These tests exercise the complete loop — profiling, offline calibration,
online decisions, and verification against the simulator's ground truth —
the way the benchmark harnesses and a downstream user would.
"""

from __future__ import annotations

import pytest

from repro.analysis.figures import figure9_problem1, figure11_problem2_efficiency
from repro.core.metrics import geometric_mean
from repro.core.model import LinearPerfModel
from repro.core.optimizer import ResourcePowerAllocator
from repro.core.policies import Problem1Policy
from repro.core.workflow import PaperWorkflow, TrainingPlan
from repro.gpu.mig import CORUN_STATES, MemoryOption
from repro.sim.engine import PerformanceSimulator
from repro.sim.noise import NoiseModel
from repro.workloads.pairs import CORUN_PAIRS
from repro.workloads.suite import DEFAULT_SUITE
from repro.workloads.synthetic import SyntheticWorkloadGenerator


class TestDecisionQualityAcrossAllWorkloads:
    def test_problem1_decisions_are_near_optimal(self, context):
        """For every Table 8 workload the allocator's Problem 1 choice must
        reach at least 90 % of the measured-best throughput at 230 W."""
        data = figure9_problem1(context)
        for row in data.comparison.rows:
            assert row.proposal >= 0.85 * row.best, row.pair

    def test_problem1_geomean_close_to_best(self, context):
        data = figure9_problem1(context)
        assert data.comparison.geomean_proposal >= 0.95 * data.comparison.geomean_best

    def test_problem2_decisions_are_near_optimal(self, context):
        data = figure11_problem2_efficiency(context, alphas=(0.2,))
        summary = data.per_alpha[0.2]
        for row in summary.rows:
            assert row.proposal >= 0.85 * row.best, row.pair
        assert summary.geomean_proposal >= 0.92 * summary.geomean_best

    def test_problem1_beats_random_worst_by_meaningful_margin(self, context):
        data = figure9_problem1(context)
        improvement = data.comparison.geomean_proposal / data.comparison.geomean_worst
        assert improvement > 1.05


class TestModelPortability:
    def test_model_survives_serialization_and_reuse(self, context, tmp_path):
        """Persist the trained model to disk, reload it, and keep making the
        same decisions — the workflow a production deployment would follow."""
        import json

        path = tmp_path / "model.json"
        path.write_text(json.dumps(context.model.to_dict()))
        reloaded = LinearPerfModel.from_dict(json.loads(path.read_text()))
        allocator_a = ResourcePowerAllocator(context.model)
        allocator_b = ResourcePowerAllocator(reloaded)
        for pair in CORUN_PAIRS[:6]:
            counters = list(context.pair_profiles(pair))
            decision_a = allocator_a.solve(counters, Problem1Policy(power_cap_w=230))
            decision_b = allocator_b.solve(counters, Problem1Policy(power_cap_w=230))
            assert decision_a.state.key() == decision_b.state.key()


class TestGeneralizationToUnseenWorkloads:
    def test_model_trained_without_a_pair_still_picks_a_good_state(self):
        """Train the coefficients on a training set that excludes the TI-MI2
        applications entirely, then ask the allocator about them — the
        profile-driven model must still transfer."""
        simulator = PerformanceSimulator(noise=NoiseModel(sigma=0.02, seed=5))
        held_out = {"igemm4", "stream"}
        training_kernels = [k for k in DEFAULT_SUITE.all() if k.name not in held_out]
        training_pairs = [
            pair for pair in CORUN_PAIRS if not (set(pair.app_names) & held_out)
        ]
        workflow = PaperWorkflow(simulator=simulator)
        workflow.train(training_kernels=training_kernels, training_pairs=training_pairs)

        decision = workflow.decide_problem1(["igemm4", "stream"], power_cap_w=250, alpha=0.2)
        kernels = [DEFAULT_SUITE.get("igemm4"), DEFAULT_SUITE.get("stream")]
        measured = {
            state.key(): simulator.co_run(kernels, state, 250).weighted_speedup
            for state in CORUN_STATES
        }
        best = max(measured.values())
        assert measured[decision.state.key()] >= 0.9 * best

    def test_synthetic_workloads_run_through_the_whole_pipeline(self):
        """The pipeline is not hard-wired to the paper's benchmarks: synthetic
        kernels can be profiled, co-scheduled, and optimized too."""
        simulator = PerformanceSimulator(noise=NoiseModel(sigma=0.02, seed=9))
        generator = SyntheticWorkloadGenerator(seed=21)
        from repro.workloads.kernel import WorkloadClass
        from repro.workloads.pairs import CoRunPair
        from repro.workloads.suite import BenchmarkSuite

        suite = BenchmarkSuite("synthetic")
        suite.register_all(generator.sample_class(c) for c in list(WorkloadClass) * 3)
        app_a = generator.sample_class(WorkloadClass.TI, name="synthetic-ti-app")
        app_b = generator.sample_class(WorkloadClass.MI, name="synthetic-mi-app")
        suite.register(app_a)
        suite.register(app_b)
        names = suite.names()
        training_pairs = [
            CoRunPair(
                name=f"SYN-{i}",
                app1=names[2 * i],
                app2=names[2 * i + 1],
                class1=WorkloadClass.TI,
                class2=WorkloadClass.MI,
            )
            for i in range(4)
        ]

        workflow = PaperWorkflow(
            simulator=simulator,
            suite=suite,
            plan=TrainingPlan(
                gpc_counts=(3, 4),
                options=(MemoryOption.SHARED, MemoryOption.PRIVATE),
                power_caps=(150.0, 250.0),
            ),
            power_caps=(150.0, 250.0),
        )
        workflow.train(training_pairs=training_pairs)
        decision = workflow.decide_problem2([app_a.name, app_b.name], alpha=0.1)
        assert decision.state in CORUN_STATES
        measured = simulator.co_run([app_a, app_b], decision.state, decision.power_cap_w)
        assert measured.weighted_speedup > 0.8


class TestCrossLayerConsistency:
    def test_measured_metrics_match_metric_functions(self, context):
        result = context.measured("TI-MI2", CORUN_STATES[0], 250)
        assert result.weighted_speedup == pytest.approx(sum(result.relative_performances))
        assert result.fairness == pytest.approx(min(result.relative_performances))

    def test_geomean_summary_consistent_with_rows(self, context):
        data = figure9_problem1(context)
        manual = geometric_mean([row.proposal for row in data.comparison.rows])
        assert data.comparison.geomean_proposal == pytest.approx(manual)

    def test_profiles_in_online_database_match_simulator(self, context):
        database = context.workflow.online.database
        for name in ("stream", "hgemm"):
            record = database.get(name)
            assert record.counters == context.simulator.profile(DEFAULT_SUITE.get(name))
