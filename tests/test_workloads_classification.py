"""Tests for the Table 7 classification rule."""

from __future__ import annotations

import pytest

from repro.sim.counters import CounterVector
from repro.workloads.classification import (
    COMPUTE_MEMORY_RATIO_THRESHOLD,
    EXPECTED_CLASSIFICATION,
    US_RELATIVE_PERFORMANCE_THRESHOLD,
    classify_from_measurements,
    classify_kernel,
)
from repro.workloads.kernel import WorkloadClass
from repro.workloads.suite import DEFAULT_SUITE


def counters(compute=90.0, memory=40.0, dram=30.0, l2=60.0, occ=50.0, mixed=0.0, double=0.0, integer=0.0):
    return CounterVector(
        compute_throughput=compute,
        memory_throughput=memory,
        dram_throughput=dram,
        l2_hit_rate=l2,
        occupancy=occ,
        tensor_mixed=mixed,
        tensor_double=double,
        tensor_int=integer,
    )


class TestRuleOnSyntheticMeasurements:
    def test_unscalable_when_degradation_small(self):
        report = classify_from_measurements("x", 0.95, counters())
        assert report.workload_class is WorkloadClass.US

    def test_threshold_is_strict(self):
        report = classify_from_measurements("x", US_RELATIVE_PERFORMANCE_THRESHOLD, counters())
        assert report.workload_class is not WorkloadClass.US

    def test_compute_intensive_without_tensor(self):
        report = classify_from_measurements("x", 0.3, counters(compute=95, memory=40))
        assert report.workload_class is WorkloadClass.CI

    def test_tensor_intensive_with_tensor_counters(self):
        report = classify_from_measurements("x", 0.3, counters(compute=95, memory=40, mixed=80))
        assert report.workload_class is WorkloadClass.TI

    def test_memory_intensive_when_ratio_low(self):
        report = classify_from_measurements("x", 0.3, counters(compute=30, memory=95))
        assert report.workload_class is WorkloadClass.MI

    def test_ratio_threshold_boundary(self):
        ratio_just_below = COMPUTE_MEMORY_RATIO_THRESHOLD * 0.99
        report = classify_from_measurements(
            "x", 0.3, counters(compute=ratio_just_below * 50, memory=50)
        )
        assert report.workload_class is WorkloadClass.MI

    def test_report_records_evidence(self):
        report = classify_from_measurements("x", 0.42, counters(compute=90, memory=45, mixed=70))
        assert report.relative_perf_us_test == pytest.approx(0.42)
        assert report.compute_memory_ratio == pytest.approx(2.0)
        assert report.tensor_utilization_pct == pytest.approx(70.0)

    def test_unknown_benchmark_matches_paper_vacuously(self):
        report = classify_from_measurements("not-in-table7", 0.3, counters())
        assert report.matches_paper


class TestRuleOnSimulatedSuite:
    def test_expected_classification_covers_24_benchmarks(self):
        assert len(EXPECTED_CLASSIFICATION) == 24
        assert sum(1 for c in EXPECTED_CLASSIFICATION.values() if c is WorkloadClass.TI) == 7
        assert sum(1 for c in EXPECTED_CLASSIFICATION.values() if c is WorkloadClass.CI) == 6
        assert sum(1 for c in EXPECTED_CLASSIFICATION.values() if c is WorkloadClass.MI) == 5
        assert sum(1 for c in EXPECTED_CLASSIFICATION.values() if c is WorkloadClass.US) == 6

    @pytest.mark.parametrize("name", sorted(EXPECTED_CLASSIFICATION))
    def test_every_benchmark_classifies_as_in_table7(self, sim, name):
        report = classify_kernel(DEFAULT_SUITE.get(name), sim)
        assert report.workload_class is EXPECTED_CLASSIFICATION[name], (
            f"{name} classified as {report.workload_class} "
            f"(expected {EXPECTED_CLASSIFICATION[name]})"
        )
