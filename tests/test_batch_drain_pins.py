"""Pins of batch drains replayed through the event loop.

A batch drain is :meth:`ClusterSimulator.run` over
:meth:`Trace.all_at_zero`; its exclusive baseline is the same call under
``SchedulerConfig(group_size=1)``.  The pins in
``data/batch_drain_pins.json`` were captured from the two dedicated batch
loops the event loop replaced (a first-free-node co-scheduling loop and a
FIFO exclusive loop) on a grid of 576 configurations: four trained
workflows x both policies x group sizes 2-4 x windows 2/4/6 x 1/2/3/5
nodes x both modes, over the 12 applications of :data:`APPS`.  The old
exclusive loop read no scheduler knob, so every exclusive configuration
of a workflow and node count pins the same schedule.

Each configuration pins the SHA-256 of its schedule (:func:`schedule_digest`)
and its mean turnaround.  The digest covers every job's ``(job_id, name,
start_time, finish_time, co_runners)`` in ``job_id`` order, the makespan and
the co-scheduled and exclusive counts, with floats written by ``repr`` so
any drift changes it.  The mean turnaround is compared at 1e-12 relative:
the replaced loops summed in submission order, the report averages in
completion order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import pytest

from repro.cluster.events import ClusterSimulator
from repro.cluster.scheduler import SchedulerConfig
from repro.core.workflow import PaperWorkflow, TrainingPlan, power_caps_for_spec
from repro.gpu.mig import MemoryOption
from repro.gpu.spec import A100_SPEC, H100_SPEC
from repro.sim.engine import PerformanceSimulator
from repro.sim.noise import no_noise
from repro.traces import Trace

PINS_PATH = Path(__file__).parent / "data" / "batch_drain_pins.json"

APPS = (
    "igemm4", "stream", "srad", "needle", "hgemm", "lud",
    "dgemm", "kmeans", "fp16gemm", "leukocyte", "bfs", "hotspot",
)
POLICIES = ("problem1", "problem2")
GROUP_SIZES = (2, 3, 4)
WINDOWS = (2, 4, 6)
NODE_COUNTS = (1, 2, 3, 5)
MODES = ("co-scheduled", "exclusive")

_PAIR_CAPS = (230.0, 250.0)
_PAIR_PLAN = TrainingPlan(
    gpc_counts=(3, 4),
    options=(MemoryOption.SHARED, MemoryOption.PRIVATE),
    power_caps=_PAIR_CAPS,
)


def _spec_workflow(spec):
    caps = power_caps_for_spec(spec)[-2:]
    return PaperWorkflow(
        simulator=PerformanceSimulator(spec, noise=no_noise()),
        plan=TrainingPlan.for_spec(spec, power_caps=caps),
        power_caps=caps,
    )


#: Workflow name -> untrained workflow.  The noisy one uses the default
#: seeded noise model; the spec grids cover N-way groups.
WORKFLOWS = {
    "pairs": lambda: PaperWorkflow(
        simulator=PerformanceSimulator(noise=no_noise()),
        plan=_PAIR_PLAN,
        power_caps=_PAIR_CAPS,
    ),
    "pairs-noisy": lambda: PaperWorkflow(plan=_PAIR_PLAN, power_caps=_PAIR_CAPS),
    "a100-grid": lambda: _spec_workflow(A100_SPEC),
    "h100-grid": lambda: _spec_workflow(H100_SPEC),
}


def configurations(workflow, mode):
    """``(label, scheduler_config, n_nodes)`` per grid point of ``mode``.

    Problem 1 runs at the lower of the workflow's two trained caps, and
    the exclusive mode replays with ``group_size=1``.  A label names the
    mode, policy, group size, window and node count of its point.
    """
    cap = min(workflow.online.allocator.power_caps)
    for policy, group, window, n_nodes in itertools.product(
        POLICIES, GROUP_SIZES, WINDOWS, NODE_COUNTS
    ):
        config = SchedulerConfig(
            window_size=window,
            group_size=group if mode == "co-scheduled" else 1,
            policy_name=policy,
            power_cap_w=cap,
        )
        yield f"{mode}/{policy}/g{group}/w{window}/n{n_nodes}", config, n_nodes


def schedule_digest(report) -> str:
    """SHA-256 of a drain's per-job intervals, makespan and counts."""
    jobs = sorted(report.jobs, key=lambda job: job.job_id)
    record = (
        tuple(
            (job.job_id, job.name, job.start_time, job.finish_time, job.co_runners)
            for job in jobs
        ),
        report.makespan_s,
        report.co_scheduled_jobs,
        report.exclusive_jobs,
    )
    return hashlib.sha256(repr(record).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


@pytest.fixture(scope="module", params=sorted(WORKFLOWS))
def trained(request):
    workflow = WORKFLOWS[request.param]()
    workflow.train()
    return request.param, workflow


def test_the_pins_cover_the_whole_grid(pins):
    assert len(pins) == 576
    assert {key.rsplit("/", 4)[0] for key in pins} == {
        f"{name}/{mode}" for name in WORKFLOWS for mode in MODES
    }


@pytest.mark.parametrize("mode", MODES)
def test_batch_drains_match_their_pins(trained, pins, mode):
    name, workflow = trained
    trace = Trace.all_at_zero(APPS)
    failures = []
    for label, config, n_nodes in configurations(workflow, mode):
        key = f"{name}/{label}"
        digest, turnaround_s = pins[key]
        report = ClusterSimulator.from_workflow(
            workflow, n_nodes=n_nodes, scheduler_config=config
        ).run(trace)
        if schedule_digest(report) != digest:
            failures.append(f"{key}: schedule digest changed")
        elif not math.isclose(
            report.turnaround.mean_s, turnaround_s, rel_tol=1e-12, abs_tol=0.0
        ):
            failures.append(
                f"{key}: mean turnaround {report.turnaround.mean_s!r} "
                f"!= pinned {turnaround_s!r}"
            )
    assert not failures, "\n".join(failures)
