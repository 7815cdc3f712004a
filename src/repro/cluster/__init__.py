"""Cluster-level job management (the Figure 1 context and future work).

The paper's method is the *Resource & Power Allocator* of a larger job
manager: a co-scheduler pulls jobs from a queue, proposes co-location pairs,
asks the allocator for the best partition/power configuration, and launches
the pair on a compute node (Figure 1).  The paper leaves the scheduler side
to future work; this package provides a compact but functional version of
it so the allocator can be exercised end to end:

* :mod:`repro.cluster.job` / :mod:`repro.cluster.queue` — jobs and the FIFO
  job queue.
* :mod:`repro.cluster.node` — a compute node wrapping one simulated GPU.
* :mod:`repro.cluster.powerbudget` — distributing a cluster-wide GPU power
  budget across nodes.
* :mod:`repro.cluster.scheduler` — the co-scheduler: pair selection from a
  window of the queue, profile-run handling, dispatch.
* :mod:`repro.cluster.events` — the discrete-event simulator, the one
  dispatch loop: it replays job traces with online arrivals, MIG
  repartitioning latency, and power-budget reallocation.  A batch drain is
  the all-at-t=0 trace (:meth:`repro.traces.Trace.all_at_zero`), and the
  exclusive-execution baseline is the same replay under
  ``SchedulerConfig(group_size=1)``.
"""

from repro.cluster.events import (
    ClusterSimulator,
    SimulationConfig,
    SimulationReport,
)
from repro.cluster.job import Job, JobState
from repro.cluster.node import ComputeNode
from repro.cluster.powerbudget import ClusterPowerManager
from repro.cluster.queue import JobQueue
from repro.cluster.scheduler import CoScheduler, SchedulerConfig

__all__ = [
    "Job",
    "JobState",
    "JobQueue",
    "ComputeNode",
    "ClusterPowerManager",
    "ClusterSimulator",
    "CoScheduler",
    "SchedulerConfig",
    "SimulationConfig",
    "SimulationReport",
]
