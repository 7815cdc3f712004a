#!/usr/bin/env python3
"""Cluster-level job management around the Resource & Power Allocator.

The paper positions its allocator inside a larger job manager (Figure 1) and
leaves the scheduler integration to future work.  This example runs that
surrounding system on the simulated cluster:

* a FIFO job queue with a look-ahead window for pair selection,
* profile runs for first-seen applications,
* co-scheduling decisions from the trained allocator (Problem 1 policy),
* a cluster-wide GPU power budget distributed across nodes,
* comparison against an exclusive-execution baseline.

Both drains replay a batch whose jobs all arrive at t=0 through the
event-driven ``ClusterSimulator``; the baseline is the same replay with one
job per GPU (``SchedulerConfig(group_size=1)``).

Run with::

    python examples/cluster_job_manager.py
"""

from __future__ import annotations

from repro import PaperWorkflow, Trace
from repro.cluster import ClusterPowerManager, ClusterSimulator, SchedulerConfig


def main() -> None:
    workflow = PaperWorkflow()
    workflow.train()

    # A small mixed job stream: Tensor, compute, memory, and unscalable jobs.
    job_names = [
        "igemm4", "stream", "srad", "needle", "hgemm", "lud",
        "dgemm", "kmeans", "fp16gemm", "leukocyte", "hotspot", "bfs",
    ]
    print(f"Submitting {len(job_names)} jobs: {', '.join(job_names)}\n")

    # ------------------------------------------------------------------
    # Co-scheduled execution (throughput policy at 250 W) vs exclusive runs.
    # ------------------------------------------------------------------
    config = SchedulerConfig(policy_name="problem1", power_cap_w=250.0, alpha=0.2, window_size=6)
    co_report = ClusterSimulator.from_workflow(
        workflow, n_nodes=2, scheduler_config=config
    ).run(Trace.all_at_zero(job_names, label="co-scheduled"))

    baseline_report = ClusterSimulator.from_workflow(
        workflow, n_nodes=2, scheduler_config=SchedulerConfig(group_size=1)
    ).run(Trace.all_at_zero(job_names, label="exclusive baseline"))

    print(co_report.summary())
    print(baseline_report.summary())
    speedup = baseline_report.makespan_s / co_report.makespan_s
    print(f"Co-scheduling changes the makespan by a factor of {speedup:.2f}x\n")

    # The report lists jobs in completion order; print them by id.
    print("Per-job placement (co-scheduled run):")
    for job in sorted(co_report.jobs, key=lambda job: job.job_id):
        partner = f", partner job {job.co_runners[0]}" if job.co_runners else ""
        print(f"  job {job.job_id:2d} {job.name:12s} finished at t={job.finish_time:.2f}s{partner}")
    print()

    # ------------------------------------------------------------------
    # Cluster-wide power budgeting, as a replay under
    # SimulationConfig(power_budget_w=...) does it: each node requests the
    # cap its current pair would like (Problem 2), and a rebalance splits
    # the fixed budget across the requests.
    # ------------------------------------------------------------------
    pairs = [("igemm4", "stream"), ("srad", "needle"), ("hgemm", "lud")]
    total_budget = 550.0
    budget = ClusterPowerManager(
        workflow.simulator.spec, node_ids=range(len(pairs)), total_budget_w=total_budget
    )
    for node_id, (app1, app2) in enumerate(pairs):
        decision = workflow.decide_problem2([app1, app2], alpha=0.2)
        budget.request(node_id, decision.power_cap_w)
        print(
            f"node {node_id}: pair ({app1}, {app2}) requests "
            f"{decision.power_cap_w:.0f} W ({decision.state.describe()})"
        )

    budget.rebalance()
    print(f"\nDistributing a {total_budget:.0f} W GPU budget across {len(pairs)} nodes:")
    for node_id, watts in sorted(budget.shares.items()):
        print(f"  node {node_id}: {watts:.1f} W")
    headroom = total_budget - sum(budget.shares.values())
    print(f"  head-room left for other racks: {headroom:.1f} W")


if __name__ == "__main__":
    main()
