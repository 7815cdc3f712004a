"""Jobs as seen by the cluster's queue and co-scheduler."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import SchedulingError
from repro.workloads.kernel import KernelCharacteristics


class JobState(str, Enum):
    """Lifecycle of a job inside the cluster."""

    #: Submitted, waiting in the queue.
    PENDING = "pending"
    #: Running exclusively to collect its profile (first run).
    PROFILING = "profiling"
    #: Running (possibly co-located) on a compute node.
    RUNNING = "running"
    #: Finished.
    COMPLETED = "completed"


#: Lifecycle order used to enforce forward-only transitions.
_STATE_RANK = {state: rank for rank, state in enumerate(JobState)}


@dataclass
class Job:
    """One GPU job: a kernel plus scheduling metadata.

    Attributes
    ----------
    job_id:
        Unique identifier assigned by the queue.
    kernel:
        The workload the job executes (its name is the profile-database key).
    submit_time:
        Simulated submission time in seconds.
    state:
        Current lifecycle state (forward-only; see :meth:`transition`).
    start_time, finish_time:
        Simulated execution interval (set by the scheduler).
    co_runners:
        ``job_id`` of every job sharing the GPU in the same co-location
        group (empty for exclusive runs).
    """

    job_id: int
    kernel: KernelCharacteristics
    submit_time: float = 0.0
    state: JobState = JobState.PENDING
    start_time: float | None = None
    finish_time: float | None = None
    co_runners: tuple[int, ...] = ()

    @property
    def name(self) -> str:
        """The workload name of the job."""
        return self.kernel.name

    @property
    def turnaround_time(self) -> float:
        """Completion time minus submission time (requires a finished job)."""
        if self.finish_time is None:
            raise SchedulingError(f"job {self.job_id} has not finished yet")
        return self.finish_time - self.submit_time

    @property
    def runtime(self) -> float:
        """Execution time on the node (requires a finished job)."""
        if self.finish_time is None or self.start_time is None:
            raise SchedulingError(f"job {self.job_id} has not finished yet")
        return self.finish_time - self.start_time

    def transition(self, new_state: JobState) -> None:
        """Move the job to ``new_state`` (enforcing a forward-only lifecycle)."""
        if _STATE_RANK[new_state] < _STATE_RANK[self.state]:
            raise SchedulingError(
                f"job {self.job_id}: illegal transition {self.state.value} -> {new_state.value}"
            )
        self.state = new_state
