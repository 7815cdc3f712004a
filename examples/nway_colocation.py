"""N-way co-location end to end: train on a spec-derived grid, decide for
3- and 4-application groups, and drain a queue with the group scheduler.

This is the Section 6 extension the engine was generalized for: partition
states are enumerated from the hardware spec (including mixed GPU-Instance
layouts), the allocator evaluates the enlarged candidate grid in one batched
call, and the co-scheduler assembles groups instead of pairs.
"""

from __future__ import annotations

from repro.cluster.events import ClusterSimulator
from repro.cluster.scheduler import SchedulerConfig
from repro.core.workflow import PaperWorkflow, TrainingPlan, power_caps_for_spec
from repro.gpu.spec import A100_SPEC
from repro.sim.engine import PerformanceSimulator
from repro.sim.noise import no_noise
from repro.traces import Trace
from repro.workloads.groups import corun_group


def main() -> None:
    # Two caps keep the example fast; drop the slice for the full grid.
    caps = power_caps_for_spec(A100_SPEC)[-2:]
    workflow = PaperWorkflow(
        simulator=PerformanceSimulator(noise=no_noise()),
        plan=TrainingPlan.for_spec(A100_SPEC, power_caps=caps),
        power_caps=caps,
    )
    workflow.train()

    # --- allocate a 3-way and a 4-way group -------------------------------
    for name in ("TI-CI-MI1", "TI-CI-MI-US1"):
        group = corun_group(name)
        decision = workflow.decide_problem2(list(group.apps), alpha=0.05)
        print(f"{group.describe()}: {decision.describe()}")
        result = workflow.simulator.co_run(
            list(group.kernels()), decision.state, decision.power_cap_w
        )
        print(f"  measured: {result.summary()}")

    # --- drain a queue with groups of up to three jobs --------------------
    simulator = ClusterSimulator.from_workflow(
        workflow,
        n_nodes=1,
        scheduler_config=SchedulerConfig(
            window_size=4, group_size=3, policy_name="problem2", alpha=0.0
        ),
    )
    report = simulator.run(
        Trace.all_at_zero(("igemm4", "stream", "bfs", "sgemm", "lud", "kmeans"))
    )
    print(report.summary())
    largest = max((len(job.co_runners) + 1 for job in report.jobs), default=1)
    print(f"largest dispatched group: {largest} jobs")


if __name__ == "__main__":
    main()
