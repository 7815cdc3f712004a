"""Micro-benchmarks of the discrete-event cluster simulator.

Reported in events/second over a 10k-job Poisson trace (1k in CI smoke
mode), and also written to ``BENCH_events.json`` (see
:func:`conftest.emit_bench_json`) so CI can archive the throughput
trajectory across commits.  The event loop has to stay cheap relative to
the allocator work it triggers: the floor asserted here is deliberately
loose (CI machines vary) but catches order-of-magnitude regressions such
as an accidentally quadratic queue scan or a cache-defeating dispatch
path.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster.events import ClusterSimulator
from repro.cluster.events.events import ArrivalEvent, EventHeap
from repro.cluster.scheduler import SchedulerConfig
from repro.core.workflow import PaperWorkflow
from repro.traces import poisson_trace
from repro.workloads.suite import DEFAULT_SUITE

from conftest import SMOKE_MODE, emit, emit_bench_json, scaled


@pytest.fixture(scope="module")
def workflow():
    workflow = PaperWorkflow()
    workflow.train()
    return workflow


def test_bench_event_loop_poisson_trace(workflow):
    """Events/sec replaying a large Poisson trace through the full loop."""
    n_jobs = scaled(10_000, 1_000)
    n_nodes = 8
    trace = poisson_trace(8.0, n_jobs=n_jobs, seed=1)
    simulator = ClusterSimulator.from_workflow(
        workflow,
        n_nodes=n_nodes,
        scheduler_config=SchedulerConfig(
            policy_name="problem1", power_cap_w=230.0, window_size=6
        ),
    )
    start = time.perf_counter()
    report = simulator.run(trace)
    elapsed = time.perf_counter() - start
    events_per_s = report.events_processed / elapsed
    stats = simulator.scheduler.stats
    decisions_per_s = stats.plans_requested / elapsed

    emit(
        f"event loop: {n_jobs}-job Poisson trace",
        f"{report.events_processed} events in {elapsed:.2f}s "
        f"-> {events_per_s:,.0f} events/s "
        f"({decisions_per_s:,.0f} scheduling decisions/s)\n{report.summary()}",
    )
    emit_bench_json(
        "events",
        {
            "benchmark": "event_loop_poisson_trace",
            "n_jobs": n_jobs,
            "n_nodes": n_nodes,
            "events_processed": report.events_processed,
            "elapsed_s": elapsed,
            "events_per_s": events_per_s,
            "decisions_per_s": decisions_per_s,
            "scheduler_stats": stats.as_dict(),
            "smoke_mode": SMOKE_MODE,
        },
    )
    assert report.n_jobs == n_jobs
    assert events_per_s > 1000.0


def test_bench_event_heap_throughput():
    """Push/pop throughput of the bare event heap (no scheduling work)."""
    n_events = scaled(200_000, 20_000)
    kernel = DEFAULT_SUITE.get("stream")
    events = [
        ArrivalEvent(time=float(i % 1000), kernel=kernel)
        for i in range(n_events)
    ]
    heap = EventHeap()
    start = time.perf_counter()
    for event in events:
        heap.push(event)
    while not heap.empty:
        heap.pop()
    elapsed = time.perf_counter() - start
    ops_per_s = 2 * n_events / elapsed

    emit(
        f"event heap: {n_events} push+pop",
        f"{elapsed:.3f}s -> {ops_per_s:,.0f} ops/s",
    )
    assert ops_per_s > 50_000.0
