"""The job manager: queue + scheduler + nodes (Figure 1), with baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.cluster.job import Job
from repro.cluster.node import ComputeNode
from repro.cluster.queue import JobQueue
from repro.cluster.scheduler import CoScheduler, SchedulerConfig
from repro.core.workflow import OnlineAllocator, PaperWorkflow
from repro.errors import SchedulingError
from repro.workloads.kernel import KernelCharacteristics


@dataclass(frozen=True)
class ScheduleReport:
    """Outcome of draining one job queue."""

    jobs: tuple[Job, ...]
    makespan_s: float
    mean_turnaround_s: float
    co_scheduled_jobs: int
    exclusive_jobs: int
    label: str

    @property
    def n_jobs(self) -> int:
        """Total number of jobs executed."""
        return len(self.jobs)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"[{self.label}] {self.n_jobs} jobs: makespan={self.makespan_s:.2f}s "
            f"mean turnaround={self.mean_turnaround_s:.2f}s "
            f"(co-scheduled {self.co_scheduled_jobs}, exclusive {self.exclusive_jobs})"
        )


@dataclass
class JobManager:
    """Drains a job queue with the co-scheduler, or exclusively as a baseline."""

    allocator: OnlineAllocator
    nodes: list[ComputeNode] = field(default_factory=list)
    scheduler_config: SchedulerConfig = field(default_factory=SchedulerConfig)

    def __post_init__(self) -> None:
        if not self.nodes:
            self.nodes = [ComputeNode(node_id=0)]
        self._scheduler = CoScheduler(self.allocator, self.scheduler_config)

    # ------------------------------------------------------------------
    @classmethod
    def from_workflow(
        cls,
        workflow: PaperWorkflow,
        n_nodes: int = 1,
        scheduler_config: SchedulerConfig | None = None,
    ) -> "JobManager":
        """Build a manager whose nodes share the workflow's simulator and spec."""
        nodes = [
            ComputeNode(
                node_id=i,
                spec=workflow.simulator.spec,
                simulator=workflow.simulator,
            )
            for i in range(n_nodes)
        ]
        return cls(
            allocator=workflow.online,
            nodes=nodes,
            scheduler_config=scheduler_config or SchedulerConfig(),
        )

    # ------------------------------------------------------------------
    def _free_node(self, time: float) -> ComputeNode | None:
        free = [node for node in self.nodes if node.is_free(time)]
        return free[0] if free else None

    def _next_free_time(self) -> float:
        return min(node.busy_until for node in self.nodes)

    # ------------------------------------------------------------------
    def drain(
        self,
        kernels: Iterable[KernelCharacteristics],
        exclusive: bool = False,
    ) -> ScheduleReport:
        """Drain a batch of jobs that are all present at ``t=0``.

        This is the paper's evaluation mode and the degenerate case of the
        event-driven :class:`~repro.cluster.events.ClusterSimulator`: an
        all-at-t=0 trace replayed through the event loop reproduces this
        schedule exactly (parity-tested).
        """
        if exclusive:
            return self.run_exclusive(kernels)
        return self.run_coscheduled(kernels)

    def _start_batch(
        self, kernels: Iterable[KernelCharacteristics]
    ) -> tuple[JobQueue, list[Job]]:
        """Queue ``kernels`` at ``t=0`` on idle nodes: like each event-loop
        replay, each drain starts fresh, never behind the previous one."""
        queue = JobQueue()
        jobs = queue.submit_all(kernels)
        if not jobs:
            raise SchedulingError("no jobs were submitted")
        for node in self.nodes:
            node.busy_until = 0.0
            node.release()
        return queue, jobs

    def run_coscheduled(self, kernels: Iterable[KernelCharacteristics]) -> ScheduleReport:
        """Drain a queue of jobs using co-scheduling decisions."""
        queue, jobs = self._start_batch(kernels)
        time = 0.0
        while not queue.empty:
            node = self._free_node(time)
            if node is None:
                time = self._next_free_time()
                continue
            plan = self._scheduler.plan_next(queue)
            self._scheduler.dispatch(plan, queue, node, time)
        return self._report(jobs, label="co-scheduled")

    def run_exclusive(self, kernels: Iterable[KernelCharacteristics]) -> ScheduleReport:
        """Baseline: every job runs exclusively on the full GPU, FIFO."""
        queue, jobs = self._start_batch(kernels)
        time = 0.0
        while not queue.empty:
            node = self._free_node(time)
            if node is None:
                time = self._next_free_time()
                continue
            job = queue.pop()
            job.start_time = time
            runtime = node.execute_exclusive(job.kernel)
            job.finish_time = time + runtime
            node.busy_until = job.finish_time
            from repro.cluster.job import JobState

            job.transition(JobState.RUNNING)
            job.mark("exclusive run (baseline)")
            job.transition(JobState.COMPLETED)
        return self._report(jobs, label="exclusive baseline")

    # ------------------------------------------------------------------
    def _report(self, jobs: Sequence[Job], label: str) -> ScheduleReport:
        unfinished = [job.job_id for job in jobs if job.finish_time is None]
        if unfinished:
            raise SchedulingError(f"jobs did not finish: {unfinished}")
        makespan = max(job.finish_time for job in jobs)  # type: ignore[arg-type]
        turnaround = sum(job.turnaround_time for job in jobs) / len(jobs)
        co_scheduled = sum(1 for job in jobs if job.co_runner is not None)
        return ScheduleReport(
            jobs=tuple(jobs),
            makespan_s=float(makespan),
            mean_turnaround_s=float(turnaround),
            co_scheduled_jobs=co_scheduled,
            exclusive_jobs=len(jobs) - co_scheduled,
            label=label,
        )
