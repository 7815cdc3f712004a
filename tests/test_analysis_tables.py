"""Tests for the Table 6/7/8 regeneration."""

from __future__ import annotations

import pytest

from repro.analysis.tables import table6_gemm_variants, table7_classification, table8_corun_pairs
from repro.workloads.classification import EXPECTED_CLASSIFICATION
from repro.workloads.kernel import WorkloadClass


class TestTable6:
    def test_nine_variants(self):
        rows = table6_gemm_variants()
        assert len(rows) == 9
        assert {r.name for r in rows} == {
            "sgemm", "dgemm", "tdgemm", "tf32gemm", "hgemm",
            "fp16gemm", "bf16gemm", "igemm4", "igemm8",
        }

    def test_rows_have_positive_derived_values(self):
        for row in table6_gemm_variants():
            assert row.iterations >= 1
            assert row.compute_time_full_s > 0
            assert row.memory_time_full_s > 0
            assert row.specification


class TestTable7:
    def test_classification_matches_paper(self, context):
        data = table7_classification(context)
        mismatches = [
            name
            for name, report in sorted(data.reports.items())
            if report.workload_class is not EXPECTED_CLASSIFICATION[name]
        ]
        assert mismatches == []
        assert data.accuracy == 1.0

    def test_class_sizes_match_paper(self, context):
        data = table7_classification(context)
        groups = data.by_class
        assert len(groups[WorkloadClass.TI]) == 7
        assert len(groups[WorkloadClass.CI]) == 6
        assert len(groups[WorkloadClass.MI]) == 5
        assert len(groups[WorkloadClass.US]) == 6

    def test_every_suite_benchmark_is_classified(self, context):
        data = table7_classification(context)
        assert set(data.reports) == set(EXPECTED_CLASSIFICATION)


class TestTable8:
    def test_pairs_and_names(self):
        data = table8_corun_pairs()
        assert len(data.pairs) == 18
        assert data.names[0] == "TI-TI1"

    def test_class_combinations_cover_nine_combos(self):
        combos = {
            tuple(sorted((pair.class1.value, pair.class2.value)))
            for pair in table8_corun_pairs().pairs
        }
        # The paper pairs every class with every other class except TI-CI:
        # 4 same-class + 5 mixed-class combinations.
        assert len(combos) == 9
        assert ("CI", "TI") not in combos
