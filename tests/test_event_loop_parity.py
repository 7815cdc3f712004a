"""Bit-exactness pins for the optimized event loop.

The fleet-scale event-loop work (incremental free-node heap, dispatch-plan
memoization, vectorized power distribution, bulk heapify) is a pure
performance change: on a seeded trace every :class:`SimulationReport`
metric must be identical to the straightforward loop it replaced.  The
fingerprints below were captured from the pre-optimization event loop
(per-batch O(nodes) scans, no plan cache, scalar power distribution) on
this exact set of configurations; any drift here means an optimization
changed scheduling behaviour, not just its cost.  ``noisy_bursty_budget``
was captured later, from the loop whose nodes still drove the emulated
NVML device, to pin the cap a node stores for the budget split.

Integers are compared exactly.  Floats get a 1e-12 relative tolerance:
the optimized arithmetic is kept operation-for-operation identical (the
vectorized power split sums with ``float(sum(array.tolist()))`` exactly
because ``np.sum`` pairwise accumulation would drift), so in practice the
match is bit-exact, but the tolerance keeps the pins portable across
libm builds.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster.events import ClusterSimulator, SimulationConfig
from repro.cluster.scheduler import SchedulerConfig
from repro.core.workflow import PaperWorkflow, TrainingPlan
from repro.gpu.mig import MemoryOption
from repro.sim.engine import PerformanceSimulator
from repro.sim.noise import no_noise
from repro.traces import bursty_trace, poisson_trace
from repro.workloads.mixes import mix_by_name

_PLAN = TrainingPlan(
    gpc_counts=(3, 4),
    options=(MemoryOption.SHARED, MemoryOption.PRIVATE),
    power_caps=(230.0, 250.0),
)
_CAPS = (230.0, 250.0)


@pytest.fixture(scope="module")
def workflow():
    """A small noise-free workflow (exact, repeatable numbers)."""
    workflow = PaperWorkflow(
        simulator=PerformanceSimulator(noise=no_noise()),
        plan=_PLAN,
        power_caps=_CAPS,
    )
    workflow.train()
    return workflow


@pytest.fixture(scope="module")
def noisy_workflow():
    """The same small workflow with the default (seeded) noise model."""
    workflow = PaperWorkflow(plan=_PLAN, power_caps=_CAPS)
    workflow.train()
    return workflow


@pytest.fixture(scope="module")
def trace():
    """The seeded arrival trace shared by most pinned configurations."""
    return poisson_trace(3.0, n_jobs=120, seed=7)


def fingerprint(report):
    """The pinned metric fingerprint of one simulation report."""
    return {
        "makespan_s": report.makespan_s,
        "throughput": report.sustained_throughput_jobs_per_s,
        "wait_mean_s": report.wait.mean_s,
        "wait_p50_s": report.wait.p50_s,
        "wait_p95_s": report.wait.p95_s,
        "wait_p99_s": report.wait.p99_s,
        "wait_max_s": report.wait.max_s,
        "turnaround_mean_s": report.turnaround.mean_s,
        "turnaround_p50_s": report.turnaround.p50_s,
        "turnaround_p95_s": report.turnaround.p95_s,
        "turnaround_p99_s": report.turnaround.p99_s,
        "turnaround_max_s": report.turnaround.max_s,
        "utilization": report.utilization,
        "energy_wh": report.energy_wh,
        "co_scheduled_jobs": report.co_scheduled_jobs,
        "exclusive_jobs": report.exclusive_jobs,
        "profile_runs": report.profile_runs,
        "events_processed": report.events_processed,
        "repartitions": report.repartitions,
        "repartition_time_s": report.repartition_time_s,
        "mig_instance_changes": report.mig_instance_changes,
        "power_rebalances": report.power_rebalances,
        "final_power_allocation_w": {
            str(node_id): share
            for node_id, share in sorted(report.final_power_allocation_w.items())
        },
        "peak_queue_length": report.peak_queue_length,
        "start_sum_s": sum(job.start_time for job in report.jobs),
        "finish_sum_s": sum(job.finish_time for job in report.jobs),
    }


def replay(simulator, trace):
    """Replay ``trace`` and check what ``events_processed`` counts.

    Each popped arrival and completion (one per dispatch) is one event,
    and so is each repartition and each power rebalance the loop applied.
    """
    report = simulator.run(trace)
    assert report.events_processed == (
        report.n_jobs
        + simulator.scheduler.stats.dispatches
        + report.repartitions
        + report.power_rebalances
    )
    return report


def assert_matches_pin(report, name):
    """Compare a report against its pinned fingerprint field by field."""
    actual = fingerprint(report)
    pinned = PINS[name]
    assert actual.keys() == pinned.keys()
    for key, expected in pinned.items():
        value = actual[key]
        if isinstance(expected, float):
            assert value == pytest.approx(expected, rel=1e-12), key
        elif isinstance(expected, dict):
            assert value.keys() == expected.keys(), key
            for node_id, share in expected.items():
                assert value[node_id] == pytest.approx(share, rel=1e-12), (key, node_id)
        else:
            assert value == expected, key


PINS = {
    "plain_problem1": {
        "makespan_s": 38.10342237487917,
        "throughput": 3.149323407734461,
        "wait_mean_s": 0.19059139998624897,
        "wait_p50_s": 0.0,
        "wait_p95_s": 0.8085171295814321,
        "wait_p99_s": 1.2196106242455833,
        "wait_max_s": 1.2995706213571232,
        "turnaround_mean_s": 1.3364053074850497,
        "turnaround_p50_s": 0.9395499214448582,
        "turnaround_p95_s": 2.895990695741009,
        "turnaround_p99_s": 3.0074537570106257,
        "turnaround_max_s": 3.091608486382764,
        "utilization": 0.7179402473503752,
        "energy_wh": 5.533087481845031,
        "co_scheduled_jobs": 46,
        "exclusive_jobs": 74,
        "profile_runs": 0,
        "events_processed": 217,
        "repartitions": 0,
        "repartition_time_s": 0.0,
        "mig_instance_changes": 0,
        "power_rebalances": 0,
        "final_power_allocation_w": {},
        "peak_queue_length": 6,
        "start_sum_s": 2087.663930069837,
        "finish_sum_s": 2225.161598969692,
    },
    "budget_latency": {
        "makespan_s": 78.13252850625739,
        "throughput": 1.5358519978063885,
        "wait_mean_s": 24.88744555589501,
        "wait_p50_s": 25.978220468475335,
        "wait_p95_s": 40.411427285895954,
        "wait_p99_s": 43.04033114259141,
        "wait_max_s": 43.94444672036923,
        "turnaround_mean_s": 26.532787264373788,
        "turnaround_p50_s": 27.75978797808344,
        "turnaround_p95_s": 42.577927253872204,
        "turnaround_p99_s": 44.892697042916886,
        "turnaround_max_s": 45.67444672036923,
        "utilization": 0.3889619764486946,
        "energy_wh": 6.120008524190204,
        "co_scheduled_jobs": 116,
        "exclusive_jobs": 4,
        "profile_runs": 0,
        "events_processed": 398,
        "repartitions": 34,
        "repartition_time_s": 186.0,
        "mig_instance_changes": 93,
        "power_rebalances": 182,
        "final_power_allocation_w": {
            "0": 175.0,
            "1": 175.0,
            "2": 175.0,
            "3": 175.0,
        },
        "peak_queue_length": 68,
        "start_sum_s": 5051.286428778888,
        "finish_sum_s": 5248.72743379634,
    },
    "problem2_groups": {
        "makespan_s": 45.75705244227768,
        "throughput": 1.7483643663655923,
        "wait_mean_s": 1.5965682530942849,
        "wait_p50_s": 1.050459735934366,
        "wait_p95_s": 4.8689916167987874,
        "wait_p99_s": 5.918639591043892,
        "wait_max_s": 5.99152444581452,
        "turnaround_mean_s": 3.113984722189076,
        "turnaround_p50_s": 2.780825802583387,
        "turnaround_p95_s": 6.651467588573148,
        "turnaround_p99_s": 7.979056041447956,
        "turnaround_max_s": 8.28134913331452,
        "utilization": 0.8629953033533844,
        "energy_wh": 4.210884419898087,
        "co_scheduled_jobs": 58,
        "exclusive_jobs": 22,
        "profile_runs": 0,
        "events_processed": 131,
        "repartitions": 0,
        "repartition_time_s": 0.0,
        "mig_instance_changes": 0,
        "power_rebalances": 0,
        "final_power_allocation_w": {},
        "peak_queue_length": 10,
        "start_sum_s": 1882.3008088278905,
        "finish_sum_s": 2003.6941263554743,
    },
    "bursty_budget": {
        "makespan_s": 41.47051849417269,
        "throughput": 1.44681094374142,
        "wait_mean_s": 0.9788615566047708,
        "wait_p50_s": 0.0,
        "wait_p95_s": 3.6270284204410355,
        "wait_p99_s": 3.8908187289803844,
        "wait_max_s": 4.089367088607595,
        "turnaround_mean_s": 2.724771021785283,
        "turnaround_p50_s": 2.4322994494095305,
        "turnaround_p95_s": 5.850333464102753,
        "turnaround_p99_s": 6.186517518886337,
        "turnaround_max_s": 6.305730965813295,
        "utilization": 0.5295607821606265,
        "energy_wh": 2.8454711542343323,
        "co_scheduled_jobs": 54,
        "exclusive_jobs": 6,
        "profile_runs": 0,
        "events_processed": 140,
        "repartitions": 0,
        "repartition_time_s": 0.0,
        "mig_instance_changes": 0,
        "power_rebalances": 47,
        "final_power_allocation_w": {
            "0": 140.0,
            "1": 140.0,
            "2": 140.0,
        },
        "peak_queue_length": 15,
        "start_sum_s": 1129.0386313198446,
        "finish_sum_s": 1233.793199230675,
    },
    "noisy_problem1": {
        "makespan_s": 57.48299663774525,
        "throughput": 2.0875738395517813,
        "wait_mean_s": 10.057738029294667,
        "wait_p50_s": 10.984275410548456,
        "wait_p95_s": 17.500378939216226,
        "wait_p99_s": 19.394470629684633,
        "wait_max_s": 19.83401727578846,
        "turnaround_mean_s": 11.64459725658627,
        "turnaround_p50_s": 12.328635935303865,
        "turnaround_p95_s": 19.223556707029907,
        "turnaround_p99_s": 20.58315332175926,
        "turnaround_max_s": 21.606009746074754,
        "utilization": 0.5075547500492752,
        "energy_wh": 6.154836271809397,
        "co_scheduled_jobs": 114,
        "exclusive_jobs": 6,
        "profile_runs": 0,
        "events_processed": 220,
        "repartitions": 37,
        "repartition_time_s": 101.0,
        "mig_instance_changes": 101,
        "power_rebalances": 0,
        "final_power_allocation_w": {},
        "peak_queue_length": 36,
        "start_sum_s": 3271.7215255868487,
        "finish_sum_s": 3462.14463286184,
    },
    "noisy_bursty_budget": {
        "makespan_s": 199.51529530326656,
        "throughput": 3.0072882336564226,
        "wait_mean_s": 1.1787011976889212,
        "wait_p50_s": 1.2550712616588386,
        "wait_p95_s": 2.927002528951667,
        "wait_p99_s": 3.9636623519035865,
        "wait_max_s": 5.356071326005484,
        "turnaround_mean_s": 2.764683071638779,
        "turnaround_p50_s": 2.652439168661677,
        "turnaround_p95_s": 4.62208127438098,
        "turnaround_p99_s": 5.7393532875379245,
        "turnaround_max_s": 7.29115959254144,
        "utilization": 0.3638097047109876,
        "energy_wh": 27.739457583557783,
        "co_scheduled_jobs": 526,
        "exclusive_jobs": 74,
        "profile_runs": 0,
        "events_processed": 1640,
        "repartitions": 223,
        "repartition_time_s": 289.0,
        "mig_instance_changes": 578,
        "power_rebalances": 480,
        "final_power_allocation_w": {
            "0": 170.0,
            "1": 170.0,
            "2": 170.0,
            "3": 170.0,
            "4": 170.0,
            "5": 170.0,
            "6": 170.0,
            "7": 170.0,
        },
        "peak_queue_length": 22,
        "start_sum_s": 58098.31787953409,
        "finish_sum_s": 59049.907003903914,
    },
}

def test_plain_problem1_matches_pin(workflow, trace):
    simulator = ClusterSimulator.from_workflow(
        workflow,
        n_nodes=4,
        scheduler_config=SchedulerConfig(
            policy_name="problem1", power_cap_w=230.0, window_size=4
        ),
    )
    report = replay(simulator, trace)
    assert_matches_pin(report, "plain_problem1")


def test_power_budget_and_repartition_latency_match_pin(workflow, trace):
    spec = workflow.simulator.spec
    simulator = ClusterSimulator.from_workflow(
        workflow,
        n_nodes=4,
        scheduler_config=SchedulerConfig(
            policy_name="problem1", power_cap_w=230.0, window_size=4
        ),
        config=SimulationConfig(
            repartition_latency_s=2.0,
            power_budget_w=4 * spec.min_power_cap_w + 300.0,
        ),
    )
    report = replay(simulator, trace)
    assert_matches_pin(report, "budget_latency")


def test_problem2_nway_groups_match_pin(workflow):
    simulator = ClusterSimulator.from_workflow(
        workflow,
        n_nodes=2,
        scheduler_config=SchedulerConfig(
            policy_name="problem2", window_size=6, group_size=3
        ),
    )
    report = replay(simulator, poisson_trace(2.0, n_jobs=80, seed=11))
    assert_matches_pin(report, "problem2_groups")


def test_bursty_arrivals_with_budget_match_pin(workflow):
    spec = workflow.simulator.spec
    simulator = ClusterSimulator.from_workflow(
        workflow,
        n_nodes=3,
        scheduler_config=SchedulerConfig(
            policy_name="problem1", power_cap_w=250.0, window_size=4
        ),
        config=SimulationConfig(power_budget_w=3 * spec.min_power_cap_w + 120.0),
    )
    report = replay(
        simulator,
        bursty_trace(0.5, mean_burst_size=4.0, duration_s=120.0, n_jobs=60, seed=3),
    )
    assert_matches_pin(report, "bursty_budget")


def test_noisy_model_matches_pin(noisy_workflow, trace):
    simulator = ClusterSimulator.from_workflow(
        noisy_workflow,
        n_nodes=4,
        scheduler_config=SchedulerConfig(
            policy_name="problem1", power_cap_w=230.0, window_size=4
        ),
        config=SimulationConfig(repartition_latency_s=1.0),
    )
    report = replay(simulator, trace)
    assert_matches_pin(report, "noisy_problem1")


def test_noisy_model_under_power_budget_matches_pin(noisy_workflow):
    # The noise-free model's quantized clocks hide sub-milliwatt cap
    # changes; the noisy one makes the budget split sensitive to how the
    # node stores its clamped cap.
    simulator = ClusterSimulator.from_workflow(
        noisy_workflow,
        n_nodes=8,
        scheduler_config=SchedulerConfig(
            policy_name="problem1", power_cap_w=230.0, window_size=6
        ),
        config=SimulationConfig(repartition_latency_s=0.5, power_budget_w=1360.0),
    )
    report = replay(
        simulator,
        bursty_trace(
            0.8,
            mean_burst_size=4.0,
            duration_s=math.inf,
            n_jobs=600,
            seed=2,
            mix=mix_by_name("memory-heavy"),
        ),
    )
    assert_matches_pin(report, "noisy_bursty_budget")
