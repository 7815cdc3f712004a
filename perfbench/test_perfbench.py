"""Tests of the benchmark harness itself: span arithmetic and output checks."""

from __future__ import annotations

import dataclasses
import json
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
from spans import SpanRecorder, Target  # noqa: E402


def _nest() -> SpanRecorder:
    """root [0, 10] > (a [1, 4] > leaf [2, 3]), b [5, 9]; recorded as they end."""
    recorder = SpanRecorder()
    root, a, leaf, b = 0, 1, 2, 3
    recorder._next_id = 4
    recorder._append(leaf, recorder.name_id("leaf"), a, 2.0, 3.0, False, 0)
    recorder._append(a, recorder.name_id("a"), root, 1.0, 4.0, False, 0)
    recorder._append(b, recorder.name_id("b"), root, 5.0, 9.0, False, 0)
    recorder._append(root, recorder.name_id("root"), -1, 0.0, 10.0, False, 0)
    return recorder


def test_self_time_is_duration_minus_direct_children():
    table = _nest().table()
    assert table.self_s.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert table.self_s.sum() == pytest.approx(10.0)


def test_has_descendant_looks_through_every_level():
    table = _nest().table()
    assert table.has_descendant("leaf").tolist() == [True, True, False, False]
    assert table.has_descendant("b").tolist() == [True, False, False, False]


def test_install_records_nested_calls_and_uninstall_restores():
    module = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    class Box:
        @classmethod
        def make(cls, x):
            return outer(x)

    module.inner, module.outer, module.Box = inner, outer, Box
    user = types.ModuleType("perfbench_fake_user")
    user.inner = inner  # bound by name, as ``from m import inner`` would
    sys.modules[module.__name__] = module
    sys.modules[user.__name__] = user
    recorder = SpanRecorder()
    try:
        recorder.install(
            [
                Target(module.__name__, "inner", "inner", count=lambda a, r: r),
                Target(module.__name__, "Box.make", "make"),
            ]
        )
        assert Box.make(1) == 4
        assert user.inner is module.inner is not inner
    finally:
        recorder.uninstall()
        del sys.modules[module.__name__], sys.modules[user.__name__]
    assert module.inner is inner and user.inner is inner
    assert vars(Box)["make"].__func__.__name__ == "make"
    table = recorder.table()
    names = [table.names[i] for i in table.name]
    assert names == ["make", "inner"]
    assert table.parent.tolist() == [-1, 0]
    assert table.count.tolist() == [0, 2]


def test_layer_self_times_and_unattributed_add_up_to_the_wall():
    recorder = SpanRecorder()
    recorder.add(layers.IMPORT_SPAN, 0.0, 0.5)
    decide = recorder.add("PlannerService.decide", 1.0, 3.0)
    solve = recorder.add("ResourcePowerAllocator.solve", 1.5, 2.5, parent=decide)
    recorder.add("LinearPerfModel.predict_candidates", 1.6, 2.0, parent=solve, count=7)
    metrics = layers.per_layer_metrics(
        recorder.table(), wall_s=4.0, warm_window=(1.0, 4.0), warm_ops=1, plan_cache_hits=0
    )
    total = sum(metrics[name] for name in layers.LAYER_SELF_METRICS)
    assert total + metrics["trace.unattributed_s"] == pytest.approx(4.0)
    assert metrics["api.self_s"] == pytest.approx(1.0)
    assert metrics["optimizer.self_s"] == pytest.approx(0.6)
    assert metrics["model.candidates"] == 7
    assert metrics["optimizer.cache_hit_ratio"] == 0.0
    assert set(metrics) | {"trace.overhead_pct"} == {n for n, _, _ in layers.PER_LAYER}


def test_scaled_clock_scales_by_the_passes_around_the_work(monkeypatch):
    ref = harness.REFERENCE_CALIBRATION_S
    passes = iter([9 * ref, 2 * ref, 2 * ref, 6 * ref])  # the first pass is discarded
    monkeypatch.setattr(harness, "calibrate", lambda: next(passes))
    clock = harness.ScaledClock()
    loop = harness.Loop(latencies=[1.0, 2.0])
    assert loop.scale_batch(clock) == pytest.approx(1.5)  # host ran at half speed
    loop.latencies.append(4.0)
    assert loop.scale_batch(clock) == pytest.approx(1.0)  # passes of 2 and 6: a quarter
    assert loop.latencies == pytest.approx([0.5, 1.0, 1.0])
    assert loop.scaled == 3


def test_traces_repeat_for_a_seed_and_differ_across_streams():
    for name in ("replay-steady", "replay-budget"):
        workload = harness.WORKLOADS[name]
        first = workload.trace(7, "warm-0", n_jobs=50)
        assert first.n_jobs == 50
        assert first.entries == workload.trace(7, "warm-0", n_jobs=50).entries
        assert first.entries != workload.trace(7, "warm-1", n_jobs=50).entries
    bursty = harness.WORKLOADS["replay-budget"].trace(7, "cold", n_jobs=200)
    assert len({entry.arrival_time_s for entry in bursty.entries}) < 200


def _job(job_id, name, submit, state="completed", finish=1.0):
    return SimpleNamespace(
        job_id=job_id,
        name=name,
        submit_time=submit,
        finish_time=finish,
        state=SimpleNamespace(value=state),
    )


def test_replay_job_check_rejects_lost_duplicated_or_unfinished_jobs():
    arrivals = [(0.0, "stream"), (1.0, "bfs")]
    good = [_job(0, "stream", 0.0), _job(1, "bfs", 1.0)]
    assert checks.check_replay_jobs(arrivals, good) == []
    assert checks.check_replay_jobs(arrivals, good[:1])
    assert checks.check_replay_jobs(arrivals, good + [good[1]])
    assert checks.check_replay_jobs(arrivals, [good[0], _job(1, "bfs", 1.0, "running")])
    assert checks.check_same_result(b"{}", b"{}", "x") == []
    assert checks.check_same_result(b'{"a":1}', b'{"a":2}', "x")


@pytest.fixture(scope="module")
def pair_session():
    import repro.api as api

    service = api.PlannerService()
    service.session_for("a100", 2)
    return api, service


def test_real_replay_passes_and_corrupted_report_fails(pair_session):
    api, service = pair_session
    workload = dataclasses.replace(harness.WORKLOADS["replay-steady"], n_jobs=40)
    tally = harness.Tally()
    cold = workload.cold(api, service, seed=3, tally=tally)
    workload.verify(api, service, cold, tally)
    assert (tally.attempted, tally.failed) == (2, 0)

    capture = SpanRecorder()
    capture.install(
        [Target("repro.api.results", "SimulationResult.from_report", "r", observe=lambda a, r: a[1])]
    )
    try:
        service.simulate_trace(cold.trace, workload.request(api))
    finally:
        capture.uninstall()
    jobs = list(capture.observations["r"][0].jobs)
    arrivals = [(entry.arrival_time_s, entry.app) for entry in cold.trace.entries]
    assert len(arrivals) == 40
    assert checks.check_replay_jobs(arrivals, jobs) == []
    assert checks.check_replay_jobs(arrivals, jobs[1:])
    assert checks.check_replay_jobs(arrivals, jobs + jobs[:1])
    corrupted = dict(cold.result.to_dict(), energy_wh=cold.result.energy_wh * 1.5)
    assert checks.check_same_result(
        checks.canonical(cold.result.to_dict()), checks.canonical(corrupted), "replay"
    )


def test_real_decision_passes_and_corrupted_decision_fails(pair_session):
    api, service = pair_session
    apps = ("igemm4", "stream")
    result = service.decide(api.DecisionRequest(apps=apps, alpha=0.2))
    valid = frozenset(harness.states_by_description(2, "a100"))
    assert checks.check_decision(result, apps, 0.2, valid) == []
    bad_state = dataclasses.replace(result, state="7GPCs-7GPCs/Shared")
    assert checks.check_decision(bad_state, apps, 0.2, valid)
    unfair = dataclasses.replace(result, predicted_fairness=0.2)
    assert checks.check_decision(unfair, apps, 0.2, valid)
    wrong_group = dataclasses.replace(result, apps=("stream", "igemm4"))
    assert checks.check_decision(wrong_group, apps, 0.2, valid)


def test_benchmark_json_matches_the_harness():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(
        layers.PER_LAYER
    )
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] == 0.25
