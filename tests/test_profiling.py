"""Tests for profile records, the collector, and the database."""

from __future__ import annotations

import json

import pytest

from repro.errors import MissingProfileError, ProfileError
from repro.profiling.database import ProfileDatabase
from repro.profiling.profiler import ProfileCollector
from repro.profiling.records import ProfileRecord
from repro.sim.counters import CounterVector
from repro.workloads.suite import DEFAULT_SUITE


def make_record(name="stream", reference=1.0):
    counters = CounterVector(50, 60, 55, 10, 70, 0, 0, 0)
    return ProfileRecord(name=name, counters=counters, reference_time_s=reference)


class TestProfileRecord:
    def test_requires_name(self):
        with pytest.raises(ProfileError):
            make_record(name="")

    def test_requires_positive_reference(self):
        with pytest.raises(ProfileError):
            make_record(reference=0.0)

    def test_dict_roundtrip(self):
        record = make_record()
        rebuilt = ProfileRecord.from_dict(record.to_dict())
        assert rebuilt.name == record.name
        assert rebuilt.counters == record.counters
        assert rebuilt.reference_time_s == record.reference_time_s

    def test_from_dict_missing_field(self):
        with pytest.raises(ProfileError):
            ProfileRecord.from_dict({"name": "x"})


class TestProfileCollector:
    def test_collect_returns_record(self, sim):
        collector = ProfileCollector(sim)
        record = collector.collect(DEFAULT_SUITE.get("hgemm"))
        assert record.name == "hgemm"
        assert record.reference_time_s == pytest.approx(
            sim.reference_time(DEFAULT_SUITE.get("hgemm"))
        )
        assert record.counters.tensor_mixed > 0
        assert "device" in record.metadata

    def test_collect_many(self, sim):
        collector = ProfileCollector(sim)
        records = collector.collect_many([DEFAULT_SUITE.get("stream"), DEFAULT_SUITE.get("lud")])
        assert set(records) == {"stream", "lud"}

    def test_collect_into_skips_existing(self, sim):
        collector = ProfileCollector(sim)
        database = ProfileDatabase()
        database.add(make_record("stream", reference=123.0))
        collector.collect_into([DEFAULT_SUITE.get("stream")], database)
        assert database.get("stream").reference_time_s == 123.0

    def test_default_simulator_is_created(self):
        collector = ProfileCollector()
        assert collector.simulator is not None


class TestProfileDatabase:
    def test_add_and_get(self):
        database = ProfileDatabase()
        database.add(make_record())
        assert database.has("stream")
        assert "stream" in database
        assert len(database) == 1
        assert database.get("stream").name == "stream"

    def test_get_missing_raises(self):
        with pytest.raises(MissingProfileError):
            ProfileDatabase().get("nope")

    def test_duplicate_add_rejected(self):
        database = ProfileDatabase()
        database.add(make_record())
        with pytest.raises(ProfileError):
            database.add(make_record(reference=9.0))
        assert database.get("stream").reference_time_s == 1.0

    def test_names_and_iteration_sorted(self):
        database = ProfileDatabase()
        database.add(make_record("zeta"))
        database.add(make_record("alpha"))
        assert database.names() == ("alpha", "zeta")
        assert list(database) == ["alpha", "zeta"]

    def test_save_and_load_roundtrip(self, tmp_path):
        database = ProfileDatabase()
        database.add(make_record("a", 1.5))
        database.add(make_record("b", 2.5))
        path = database.save(tmp_path / "profiles.json")
        loaded = ProfileDatabase.load(path)
        assert loaded.names() == ("a", "b")
        assert loaded.get("a").reference_time_s == 1.5

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ProfileError):
            ProfileDatabase.load(tmp_path / "missing.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json {")
        with pytest.raises(ProfileError):
            ProfileDatabase.load(path)

    def test_from_dict_rejects_other_formats(self):
        with pytest.raises(ProfileError):
            ProfileDatabase.from_dict({"format": "something-else"})

    def test_saved_file_is_valid_json(self, tmp_path):
        database = ProfileDatabase()
        database.add(make_record())
        path = database.save(tmp_path / "db.json")
        data = json.loads(path.read_text())
        assert data["format"] == "repro-profile-database"
        assert len(data["profiles"]) == 1


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
