"""Tests for profile records, the collector, and the database."""

from __future__ import annotations

import pytest

from repro.errors import MissingProfileError, ProfileError
from repro.profiling.database import ProfileDatabase
from repro.profiling.profiler import ProfileCollector
from repro.profiling.records import ProfileRecord
from repro.sim.counters import CounterVector
from repro.workloads.suite import DEFAULT_SUITE


def make_record(name="stream"):
    counters = CounterVector(50, 60, 55, 10, 70, 0, 0, 0)
    return ProfileRecord(name=name, counters=counters)


class TestProfileRecord:
    def test_requires_name(self):
        with pytest.raises(ProfileError):
            make_record(name="")


class TestProfileCollector:
    def test_collect_returns_record(self, sim):
        collector = ProfileCollector(sim)
        record = collector.collect(DEFAULT_SUITE.get("hgemm"))
        assert record.name == "hgemm"
        assert record.counters == sim.profile(DEFAULT_SUITE.get("hgemm"))
        assert record.counters.tensor_mixed > 0

    def test_collect_into_skips_existing(self, sim):
        collector = ProfileCollector(sim)
        database = ProfileDatabase()
        stored = make_record("stream")
        database.add(stored)
        collector.collect_into([DEFAULT_SUITE.get("stream")], database)
        assert database.get("stream") is stored

    def test_default_simulator_is_created(self):
        collector = ProfileCollector()
        assert collector.simulator is not None


class TestProfileDatabase:
    def test_add_and_get(self):
        database = ProfileDatabase()
        assert not database.has("stream")
        database.add(make_record())
        assert database.has("stream")
        assert database.get("stream").name == "stream"

    def test_get_missing_raises(self):
        with pytest.raises(MissingProfileError):
            ProfileDatabase().get("nope")

    def test_duplicate_add_rejected(self):
        database = ProfileDatabase()
        first = make_record()
        database.add(first)
        with pytest.raises(ProfileError):
            database.add(make_record())
        assert database.get("stream") is first


class TestHotspotProfiler:
    def test_profiled_block_shows_up_in_hotspots(self):
        from repro.profiling import HotspotProfiler

        def busy_work():
            return sum(i * i for i in range(20_000))

        profiler = HotspotProfiler()
        with profiler:
            busy_work()
        spots = profiler.hotspots(top=10)
        assert spots
        assert any("busy_work" in spot.location for spot in spots)
        # Heaviest first, and every row carries sane counters.
        cumulative = [spot.cumulative_time_s for spot in spots]
        assert cumulative == sorted(cumulative, reverse=True)
        assert all(spot.calls >= 1 for spot in spots)

    def test_report_renders_a_table(self):
        from repro.profiling import HotspotProfiler

        profiler = HotspotProfiler()
        with profiler:
            sorted(range(1000), key=lambda x: -x)
        report = profiler.report(top=3)
        lines = report.splitlines()
        assert "cumulative[s]" in lines[0]
        assert len(lines) <= 4

    def test_report_before_profiling_rejected(self):
        from repro.errors import ConfigurationError
        from repro.profiling import HotspotProfiler

        profiler = HotspotProfiler()
        with pytest.raises(ConfigurationError):
            profiler.report()
        with profiler:
            pass
        with pytest.raises(ConfigurationError):
            profiler.hotspots(top=0)
