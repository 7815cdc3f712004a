"""Tests for the figure-data generators (qualitative paper shapes).

These are the library-level checks behind the benchmark harnesses: each test
asserts the *shape* the paper reports (who wins, roughly by how much, how
curves move), not absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.analysis.context import EvaluationContext
from repro.analysis.errors import model_error_summary
from repro.analysis.figures import (
    figure4_scalability_partitioning,
    figure5_scalability_power,
    figure6_corun_throughput,
    figure8_model_accuracy,
    figure9_problem1,
    figure10_problem1_power_sweep,
    figure11_problem2_efficiency,
    figure12_problem2_power_selection,
    figure13_efficiency_vs_alpha,
)
from repro.gpu.mig import MemoryOption


class TestContext:
    def test_create_builds_trained_model(self, context):
        assert context.model.fitted_scalability_states()
        assert context.model.to_dict()["interference"]

    def test_measured_results_are_cached(self, context):
        state = context.config.candidate_states[0]
        first = context.measured("TI-MI2", state, 250)
        second = context.measured("TI-MI2", state, 250)
        assert first is second

    def test_measured_grid_covers_full_grid(self, context):
        grid = {
            (state.key(), cap): context.measured("CI-US1", state, cap)
            for state in context.config.candidate_states
            for cap in context.config.power_caps
        }
        assert len(grid) == 4 * 6
        for (key, cap), result in grid.items():
            assert (result.state.key(), result.power_cap_w) == (key, cap)

    def test_profiles_are_cached(self, context):
        assert context.profile("stream") is context.profile("stream")

    def test_standalone_context_creation(self):
        fresh = EvaluationContext.create()
        assert fresh.model is not None


class TestFigure4:
    def test_stream_needs_shared_option_on_small_partitions(self, context):
        data = figure4_scalability_partitioning(context)
        private = data.curve("stream", MemoryOption.PRIVATE)
        shared = data.curve("stream", MemoryOption.SHARED)
        assert shared.value_at(3) > 1.5 * private.value_at(3)
        assert private.value_at(7) > 0.9

    def test_kmeans_is_flat(self, context):
        data = figure4_scalability_partitioning(context)
        for option in (MemoryOption.PRIVATE, MemoryOption.SHARED):
            curve = data.curve("kmeans", option)
            assert curve.value_at(1) > 0.9
            assert curve.value_at(7) > 0.9

    def test_gemms_scale_with_gpcs_regardless_of_option(self, context):
        data = figure4_scalability_partitioning(context)
        for kernel in ("dgemm", "hgemm"):
            for option in (MemoryOption.PRIVATE, MemoryOption.SHARED):
                curve = data.curve(kernel, option)
                values = [value for _, value in curve.points]
                assert values == sorted(values)
                assert curve.value_at(1) < 0.2
                assert curve.value_at(7) > 0.8
            private = data.curve(kernel, MemoryOption.PRIVATE)
            shared = data.curve(kernel, MemoryOption.SHARED)
            assert private.value_at(4) == pytest.approx(shared.value_at(4), rel=0.1)


class TestFigure5:
    def test_power_cap_hits_tensor_kernel_hardest(self, context):
        data = figure5_scalability_power(context)
        hgemm_drop = 1 - data.curve("hgemm", 150).value_at(7) / data.curve("hgemm", 250).value_at(7)
        dgemm_drop = 1 - data.curve("dgemm", 150).value_at(7) / data.curve("dgemm", 250).value_at(7)
        stream_drop = 1 - data.curve("stream", 150).value_at(7) / data.curve("stream", 250).value_at(7)
        kmeans_drop = 1 - data.curve("kmeans", 150).value_at(7) / data.curve("kmeans", 250).value_at(7)
        assert hgemm_drop > dgemm_drop > stream_drop - 0.02
        assert hgemm_drop > 0.15
        assert abs(stream_drop) < 0.05
        assert abs(kmeans_drop) < 0.05

    def test_small_partitions_unaffected_by_cap(self, context):
        data = figure5_scalability_power(context)
        assert data.curve("hgemm", 150).value_at(1) == pytest.approx(
            data.curve("hgemm", 250).value_at(1), rel=0.05
        )


class TestFigure6:
    def test_ti_mi_prefers_shared_with_more_gpcs_for_tensor_app(self, context):
        data = figure6_corun_throughput(context)
        assert data.best_state("TI-MI2") == "S1"
        assert data.spread("TI-MI2") > 1.2

    def test_ci_us_prefers_private(self, context):
        data = figure6_corun_throughput(context)
        assert data.best_state("CI-US1") in ("S3", "S4")

    def test_throughput_values_are_plausible(self, context):
        data = figure6_corun_throughput(context)
        for row in data.throughput.values():
            for value in row.values():
                assert 0.5 < value < 2.0


class TestFigure8:
    def test_average_errors_close_to_paper(self, context):
        data = figure8_model_accuracy(context)
        assert data.throughput_mape_pct < 15.0
        assert data.fairness_mape_pct < 20.0
        assert len(data.rows) == 18 * 4

    def test_model_error_summary_all_caps(self, context):
        summary = model_error_summary(context)
        assert summary.n_samples == 18 * 4 * 6
        assert summary.throughput_mape_pct < 15.0
        assert summary.fairness_mape_pct < 20.0

    def test_estimates_correlate_with_measurements(self, context):
        import numpy as np

        data = figure8_model_accuracy(context)
        measured = np.array([r.measured_throughput for r in data.rows])
        estimated = np.array([r.estimated_throughput for r in data.rows])
        assert np.corrcoef(measured, estimated)[0, 1] > 0.9


class TestProblem1Figures:
    def test_figure9_proposal_close_to_best(self, context):
        data = figure9_problem1(context)
        summary = data.comparison
        assert len(summary.rows) == 18
        assert summary.geomean_worst <= summary.geomean_proposal <= summary.geomean_best + 1e-9
        assert summary.geomean_proposal >= 0.95 * summary.geomean_best
        assert summary.fairness_violations == 0

    def test_figure9_per_workload_sanity(self, context):
        data = figure9_problem1(context)
        for row in data.comparison.rows:
            assert row.worst <= row.best + 1e-9
            assert row.worst - 1e-9 <= row.proposal <= row.best + 1e-9
            assert row.proposal_power_cap_w == data.power_cap_w

    def test_figure10_throughput_increases_with_power(self, context):
        data = figure10_problem1_power_sweep(context)
        geomeans = data.geomeans()
        assert len(geomeans) == 6
        proposals = [row[2] for row in geomeans]
        assert proposals[-1] >= proposals[0]
        bests = [row[3] for row in geomeans]
        for _, worst, proposal, best in geomeans:
            assert worst <= proposal + 1e-9 <= best + 1e-9
        assert all(proposal >= 0.93 * best for proposal, best in zip(proposals, bests))


class TestProblem2Figures:
    def test_figure11_proposal_close_to_best(self, context):
        data = figure11_problem2_efficiency(context)
        for alpha, summary in data.per_alpha.items():
            assert summary.geomean_proposal >= 0.9 * summary.geomean_best
            assert summary.geomean_proposal > summary.geomean_worst

    def test_figure12_power_selection_is_sensitive_to_alpha(self, context):
        data = figure12_problem2_power_selection(context)
        low_proposal = {r.pair: r.proposal_power_w for r in data.per_alpha[0.20]}
        high_proposal = {r.pair: r.proposal_power_w for r in data.per_alpha[0.42]}
        low_best = {r.pair: r.best_power_w for r in data.per_alpha[0.20]}
        high_best = {r.pair: r.best_power_w for r in data.per_alpha[0.42]}
        shared = [p for p in low_proposal if p in high_proposal]
        # A stricter fairness constraint never lets the allocator pick a
        # *lower* cap, and for the measured ground truth at least some
        # workloads (the throttling-sensitive ones) need strictly more power.
        assert all(high_proposal[p] >= low_proposal[p] for p in shared)
        assert any(high_best[p] > low_best[p] for p in shared)
        mean_low = sum(low_best[p] for p in shared) / len(shared)
        mean_high = sum(high_best[p] for p in shared) / len(shared)
        assert mean_high >= mean_low

    def test_figure12_best_power_within_grid(self, context):
        data = figure12_problem2_power_selection(context)
        for rows in data.per_alpha.values():
            for row in rows:
                assert row.best_power_w in context.config.power_caps
                assert row.proposal_power_w in context.config.power_caps

    def test_figure13_proposal_tracks_best_across_alphas(self, context):
        data = figure13_efficiency_vs_alpha(context, alphas=(0.0, 0.2, 0.42))
        for alpha, worst, proposal, best in data.geomeans():
            assert worst <= proposal + 1e-9
            assert proposal >= 0.88 * best
