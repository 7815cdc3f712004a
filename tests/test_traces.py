"""Tests for the trace layer: records, generators, and persistence."""

from __future__ import annotations

import math

import pytest

from repro.errors import TraceError
from repro.traces import (
    Trace,
    TraceEntry,
    bursty_trace,
    load_trace,
    poisson_trace,
    save_trace,
)
from repro.workloads.mixes import TENSOR_HEAVY_MIX, mix_by_name
from repro.workloads.suite import DEFAULT_SUITE


class TestTrace:
    def test_entries_sorted_by_arrival_time(self):
        trace = Trace.from_arrivals([(3.0, "stream"), (1.0, "dgemm"), (2.0, "hgemm")])
        assert [entry.app for entry in trace] == ["dgemm", "hgemm", "stream"]
        assert trace.duration_s == pytest.approx(3.0)

    def test_simultaneous_arrivals_keep_submission_order(self):
        trace = Trace.from_arrivals([(0.0, "a"), (0.0, "b"), (0.0, "c")])
        assert [entry.app for entry in trace] == ["a", "b", "c"]

    def test_all_at_zero(self):
        trace = Trace.all_at_zero(["stream", "dgemm"])
        assert trace.n_jobs == 2
        assert trace.duration_s == 0.0
        assert all(entry.arrival_time_s == 0.0 for entry in trace)

    def test_negative_arrival_time_rejected(self):
        with pytest.raises(TraceError):
            TraceEntry(arrival_time_s=-1.0, app="stream")

    def test_empty_app_name_rejected(self):
        with pytest.raises(TraceError):
            TraceEntry(arrival_time_s=0.0, app="")

    def test_shifted(self):
        trace = Trace.from_arrivals([(1.0, "stream")]).shifted(2.0)
        assert trace.entries[0].arrival_time_s == pytest.approx(3.0)
        with pytest.raises(TraceError):
            Trace.from_arrivals([(1.0, "stream")]).shifted(-2.0)

    def test_resolve_kernels(self):
        trace = Trace.all_at_zero(["stream", "dgemm"])
        kernels = trace.resolve_kernels(DEFAULT_SUITE)
        assert [k.name for k in kernels] == ["stream", "dgemm"]

    def test_resolve_unknown_app_names_the_offender(self):
        trace = Trace.all_at_zero(["stream", "nonesuch"])
        with pytest.raises(TraceError, match="nonesuch"):
            trace.resolve_kernels()

    def test_summary_mentions_job_count(self):
        trace = Trace.all_at_zero(["stream"] * 5)
        assert "5 jobs" in trace.summary()


class TestPoissonGenerator:
    def test_deterministic_for_a_seed(self):
        first = poisson_trace(2.0, duration_s=50.0, seed=11)
        second = poisson_trace(2.0, duration_s=50.0, seed=11)
        assert first.entries == second.entries

    def test_different_seed_changes_trace(self):
        first = poisson_trace(2.0, duration_s=50.0, seed=11)
        second = poisson_trace(2.0, duration_s=50.0, seed=12)
        assert first.entries != second.entries

    def test_rate_is_respected_on_average(self):
        trace = poisson_trace(5.0, duration_s=200.0, seed=3)
        empirical = trace.n_jobs / 200.0
        assert empirical == pytest.approx(5.0, rel=0.15)

    def test_n_jobs_caps_the_trace(self):
        trace = poisson_trace(2.0, n_jobs=25, seed=1)
        assert trace.n_jobs == 25

    def test_apps_drawn_from_mix(self):
        trace = poisson_trace(5.0, duration_s=100.0, seed=7, mix=TENSOR_HEAVY_MIX)
        assert set(trace.app_names) <= set(TENSOR_HEAVY_MIX.app_names)

    def test_explicit_app_list(self):
        trace = poisson_trace(2.0, n_jobs=30, seed=5, apps=["stream", "dgemm"])
        assert set(trace.app_names) <= {"stream", "dgemm"}

    def test_invalid_parameters_rejected(self):
        with pytest.raises(TraceError):
            poisson_trace(0.0, duration_s=10.0)
        with pytest.raises(TraceError):
            poisson_trace(1.0)
        with pytest.raises(TraceError):
            poisson_trace(1.0, duration_s=-5.0)
        with pytest.raises(TraceError):
            poisson_trace(1.0, n_jobs=0)

    @pytest.mark.parametrize("duration_s", [math.inf, math.nan])
    def test_non_finite_window_needs_n_jobs(self, duration_s):
        with pytest.raises(TraceError, match="duration_s"):
            poisson_trace(1.0, duration_s=duration_s)
        assert poisson_trace(1.0, duration_s=duration_s, n_jobs=12).n_jobs == 12


class TestBurstyGenerator:
    def test_deterministic_for_a_seed(self):
        first = bursty_trace(0.5, 4.0, duration_s=100.0, seed=9)
        second = bursty_trace(0.5, 4.0, duration_s=100.0, seed=9)
        assert first.entries == second.entries

    def test_produces_simultaneous_bursts(self):
        trace = bursty_trace(0.5, 5.0, duration_s=100.0, seed=9)
        times = [entry.arrival_time_s for entry in trace]
        # With mean burst size 5 there must be repeated timestamps.
        assert len(set(times)) < len(times)

    def test_mean_burst_size_is_respected(self):
        trace = bursty_trace(1.0, 4.0, duration_s=500.0, seed=2)
        times = [entry.arrival_time_s for entry in trace]
        n_bursts = len(set(times))
        assert trace.n_jobs / n_bursts == pytest.approx(4.0, rel=0.25)

    def test_n_jobs_caps_the_trace(self):
        trace = bursty_trace(1.0, 4.0, duration_s=500.0, n_jobs=17, seed=2)
        assert trace.n_jobs == 17

    def test_invalid_parameters_rejected(self):
        with pytest.raises(TraceError):
            bursty_trace(0.0, 2.0, duration_s=10.0)
        with pytest.raises(TraceError):
            bursty_trace(1.0, 0.5, duration_s=10.0)
        with pytest.raises(TraceError):
            bursty_trace(1.0, 2.0, duration_s=0.0)
        with pytest.raises(TraceError):
            bursty_trace(1.0, 2.0, duration_s=10.0, n_jobs=0)

    @pytest.mark.parametrize("duration_s", [math.inf, math.nan])
    def test_non_finite_window_needs_n_jobs(self, duration_s):
        with pytest.raises(TraceError, match="duration_s"):
            bursty_trace(1.0, 3.0, duration_s=duration_s)
        assert bursty_trace(1.0, 3.0, duration_s=duration_s, n_jobs=12).n_jobs == 12


class TestLoader:
    @pytest.fixture()
    def trace(self):
        return poisson_trace(2.0, n_jobs=20, seed=4, label="roundtrip")

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_roundtrip(self, trace, tmp_path, suffix):
        path = save_trace(trace, tmp_path / f"trace{suffix}")
        loaded = load_trace(path)
        assert [(e.arrival_time_s, e.app) for e in loaded] == [
            (e.arrival_time_s, e.app) for e in trace
        ]

    def test_json_keeps_label(self, trace, tmp_path):
        path = save_trace(trace, tmp_path / "trace.json")
        assert load_trace(path).label == "roundtrip"

    def test_unsupported_suffix_rejected(self, trace, tmp_path):
        with pytest.raises(TraceError):
            save_trace(trace, tmp_path / "trace.yaml")
        with pytest.raises(TraceError):
            load_trace(tmp_path / "trace.yaml")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace(tmp_path / "missing.csv")

    def test_bad_csv_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,name\n1.0,stream\n")
        with pytest.raises(TraceError, match="header"):
            load_trace(path)

    def test_bad_csv_number_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("arrival_time_s,app\nnot-a-number,stream\n")
        with pytest.raises(TraceError, match="not a number"):
            load_trace(path)

    def test_bad_json_document_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"format\": \"something-else\"}")
        with pytest.raises(TraceError):
            load_trace(path)

    def test_bad_json_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "repro-job-trace", "version": 99, "jobs": []}')
        with pytest.raises(TraceError, match="version"):
            load_trace(path)


class TestJobMixes:
    def test_mix_lookup_is_case_insensitive(self):
        assert mix_by_name("Tensor-Heavy") is TENSOR_HEAVY_MIX

    def test_unknown_mix_lists_valid_names(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError, match="steady"):
            mix_by_name("nonesuch")

    def test_normalized_weights_sum_to_one(self):
        total = sum(TENSOR_HEAVY_MIX.normalized().values())
        assert total == pytest.approx(1.0)

    def test_mix_apps_exist_in_default_suite(self):
        for app in TENSOR_HEAVY_MIX.app_names:
            assert app in DEFAULT_SUITE
