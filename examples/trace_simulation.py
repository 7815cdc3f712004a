#!/usr/bin/env python3
"""Trace-driven cluster simulation: online arrivals over the co-scheduler.

``examples/cluster_job_manager.py`` drains a batch whose jobs all arrive
at t=0.  This walkthrough runs the *online* story through the service
layer — one :class:`repro.api.PlannerService` trains once and every
section reuses the hot session:

* a synthetic Poisson trace of arriving jobs (from a weighted job mix),
* the event-driven :class:`ClusterSimulator` dispatching them onto nodes,
* MIG repartitioning priced with a reconfiguration latency plus a
  cluster-wide power budget re-distributed as the load shifts,
* and trace save/load + a ``SimulationRequest`` replay of the saved file.

Run with::

    python examples/trace_simulation.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.api import PlannerService, SimulationRequest
from repro.traces import poisson_trace, save_trace


def main() -> None:
    service = PlannerService()
    base_request = SimulationRequest(
        policy="problem1", power_cap_w=230.0, alpha=0.2, window_size=6, n_nodes=2
    )

    # ------------------------------------------------------------------
    # 1. Online arrivals: a tensor-heavy Poisson stream on two nodes.
    # ------------------------------------------------------------------
    from repro.workloads.mixes import TENSOR_HEAVY_MIX

    trace = poisson_trace(
        arrival_rate_per_s=1.0, duration_s=120.0, seed=7, mix=TENSOR_HEAVY_MIX
    )
    print(trace.summary())

    report = service.simulate_trace(trace, base_request)
    print(report.report_summary)
    print()

    # ------------------------------------------------------------------
    # 2. The same trace with priced MIG reconfiguration and a power budget
    #    — the hot session is reused, nothing retrains.
    # ------------------------------------------------------------------
    constrained_request = SimulationRequest(
        policy="problem1",
        power_cap_w=230.0,
        alpha=0.2,
        window_size=6,
        n_nodes=2,
        repartition_latency_s=2.0,
        power_budget_w=420.0,
    )
    constrained = service.simulate_trace(trace, constrained_request)
    print(constrained.report_summary)
    slowdown = constrained.makespan_s / report.makespan_s
    print(
        f"Repartition latency + budget stretch the makespan by {slowdown:.2f}x "
        f"(training runs so far: {service.stats.trainings_run})\n"
    )

    # ------------------------------------------------------------------
    # 3. Persistence: save the trace, then replay the file through a
    #    SimulationRequest — the path the CLI's --trace flag takes.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = save_trace(trace, Path(tmp) / "trace.csv")
        replay = service.simulate(
            SimulationRequest(
                trace_path=str(path),
                policy="problem1",
                power_cap_w=230.0,
                alpha=0.2,
                window_size=6,
                n_nodes=2,
            )
        )
        print(f"replayed {replay.trace_summary}")
        print(
            f"replay p99 wait matches: "
            f"{abs(replay.wait.p99_s - report.wait.p99_s):.2e}s"
        )


if __name__ == "__main__":
    main()
