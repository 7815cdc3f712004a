"""Online metrics emitted by the event-driven cluster simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.cluster.job import Job
from repro.errors import SimulationError


@dataclass(frozen=True)
class LatencyStats:
    """Mean and tail percentiles of one latency population (seconds)."""

    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        """Compute the statistics from raw samples (must be non-empty)."""
        if not samples:
            raise SimulationError("cannot compute latency statistics of zero samples")
        values = np.asarray(samples, dtype=float)
        p50, p95, p99 = np.percentile(values, (50.0, 95.0, 99.0))
        return cls(
            mean_s=float(values.mean()),
            p50_s=float(p50),
            p95_s=float(p95),
            p99_s=float(p99),
            max_s=float(values.max()),
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"mean={self.mean_s:.2f}s p50={self.p50_s:.2f}s "
            f"p95={self.p95_s:.2f}s p99={self.p99_s:.2f}s max={self.max_s:.2f}s"
        )


@dataclass(frozen=True)
class SimulationReport:
    """Outcome of replaying one trace through the event-driven cluster.

    Attributes
    ----------
    label:
        Trace label the run replayed.
    jobs:
        Every completed job, in completion order.
    n_nodes:
        Number of compute nodes in the cluster.
    makespan_s:
        Time of the last completion (arrival of the first job is ``t=0``).
    sustained_throughput_jobs_per_s:
        Completed jobs divided by the makespan.
    wait, turnaround:
        Latency statistics of queue wait (dispatch minus submission) and
        turnaround (completion minus submission).
    utilization:
        Fraction of total node-time spent serving jobs (MIG reconfiguration
        windows count as busy but are also reported separately).
    energy_wh:
        Modelled energy-to-solution of every dispatch (chip power integrated
        over each run window), in watt-hours.
    co_scheduled_jobs, exclusive_jobs, profile_runs:
        How jobs were executed; profile runs are also exclusive runs.
    events_processed:
        State changes the loop applied: every arrival and completion it
        popped off the event heap, plus every repartition and every power
        rebalance.
    repartitions, repartition_time_s, mig_instance_changes:
        MIG layout changes performed, the total latency they added, and the
        number of GPU Instances created/destroyed across them (the latency
        scales with this count; re-binding jobs onto an unchanged GI
        multiset is free).
    power_rebalances:
        How often the cluster power budget was re-distributed.
    final_power_allocation_w:
        Per-node power caps after the last rebalance (empty when no budget
        was configured).
    peak_queue_length:
        Largest number of jobs that were pending at once.
    """

    label: str
    jobs: tuple[Job, ...]
    n_nodes: int
    makespan_s: float
    sustained_throughput_jobs_per_s: float
    wait: LatencyStats
    turnaround: LatencyStats
    utilization: float
    energy_wh: float
    co_scheduled_jobs: int
    exclusive_jobs: int
    profile_runs: int
    events_processed: int
    repartitions: int
    repartition_time_s: float
    mig_instance_changes: int
    power_rebalances: int
    final_power_allocation_w: Mapping[int, float]
    peak_queue_length: int

    @property
    def n_jobs(self) -> int:
        """Total number of completed jobs."""
        return len(self.jobs)

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"[{self.label}] {self.n_jobs} jobs on {self.n_nodes} node(s): "
            f"makespan={self.makespan_s:.2f}s "
            f"throughput={self.sustained_throughput_jobs_per_s:.3f} jobs/s",
            f"  wait:       {self.wait.describe()}",
            f"  turnaround: {self.turnaround.describe()}",
            f"  utilization={self.utilization:.1%}  energy={self.energy_wh:.1f} Wh",
            f"  co-scheduled {self.co_scheduled_jobs}, exclusive {self.exclusive_jobs} "
            f"(of which {self.profile_runs} profile runs)",
            f"  events={self.events_processed}  repartitions={self.repartitions} "
            f"({self.mig_instance_changes} GI changes, "
            f"+{self.repartition_time_s:.1f}s)  rebalances={self.power_rebalances}  "
            f"peak queue={self.peak_queue_length}",
        ]
        if self.final_power_allocation_w:
            caps = ", ".join(
                f"node{node_id}={cap:.0f}W"
                for node_id, cap in sorted(self.final_power_allocation_w.items())
            )
            lines.append(f"  power allocation: {caps}")
        return "\n".join(lines)
