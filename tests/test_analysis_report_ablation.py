"""Tests for text rendering and the ablation studies."""

from __future__ import annotations

import pytest

from repro.analysis.ablation import (
    basis_function_ablation,
    interference_term_ablation,
    search_strategy_ablation,
)
from repro.analysis.figures import (
    figure4_scalability_partitioning,
    figure6_corun_throughput,
    figure8_model_accuracy,
    figure9_problem1,
    figure10_problem1_power_sweep,
    figure13_efficiency_vs_alpha,
)
from repro.analysis.report import (
    ascii_table,
    render_alpha_sweep,
    render_comparison,
    render_figure6,
    render_figure8,
    render_power_sweep,
    render_scalability,
    render_table6,
    render_table7,
    render_table8,
)
from repro.analysis.tables import table6_gemm_variants, table7_classification, table8_corun_pairs


class TestReportRendering:
    def test_ascii_table_alignment(self):
        text = ascii_table(["a", "name"], [["1", "x"], ["22", "yy"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[2:])) <= 2

    def test_render_table6_lists_all_variants(self):
        text = render_table6(table6_gemm_variants())
        assert "hgemm" in text and "igemm4" in text

    def test_render_table7_flags_matches(self, context):
        text = render_table7(table7_classification(context))
        assert "MISMATCH" not in text
        assert "kmeans" in text

    def test_render_table8(self):
        text = render_table8(table8_corun_pairs())
        assert "TI-MI2" in text and "igemm4" in text

    def test_render_scalability(self, context):
        text = render_scalability(figure4_scalability_partitioning(context), "Figure 4")
        assert "Figure 4" in text and "stream" in text and "7GPC" in text

    def test_render_figure6(self, context):
        text = render_figure6(figure6_corun_throughput(context))
        assert "S1" in text and "spread" in text

    def test_render_figure8_includes_error_summary(self, context):
        text = render_figure8(figure8_model_accuracy(context))
        assert "average error" in text

    def test_render_comparison_and_sweeps(self, context):
        fig9 = figure9_problem1(context)
        assert "geomean" in render_comparison(fig9.comparison, "throughput")
        assert "P[W]" in render_power_sweep(figure10_problem1_power_sweep(context))
        assert "alpha" in render_alpha_sweep(
            figure13_efficiency_vs_alpha(context, alphas=(0.2,))
        )


class TestAblations:
    def test_interference_term_improves_accuracy(self, context):
        result = interference_term_ablation(context, power_caps=(250.0,))
        assert result.no_interference_throughput_mape_pct >= result.full_throughput_mape_pct
        assert result.throughput_degradation_pct >= 0
        # Dropping the D term never makes the fairness error much better.
        assert result.no_interference_fairness_mape_pct - result.full_fairness_mape_pct >= -1.0

    def test_search_strategies_agree_on_paper_space(self, context):
        result = search_strategy_ablation(context)
        assert result.n_workloads > 0
        assert result.agreement >= 0.8
        assert result.mean_objective_ratio >= 0.98
        assert result.exhaustive_candidates_evaluated >= result.hill_climbing_candidates_evaluated

    @pytest.mark.slow
    def test_basis_function_ablation_reports_both_bases(self, context):
        result = basis_function_ablation(context, power_caps=(250.0,))
        assert set(result.throughput_mape_pct) == {"table4", "raw-counters"}
        for value in result.throughput_mape_pct.values():
            assert 0 < value < 40
