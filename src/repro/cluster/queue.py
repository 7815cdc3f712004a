"""FIFO job queue with a co-scheduling look-ahead window."""

from __future__ import annotations

from typing import Iterator

from repro.cluster.job import Job
from repro.errors import SchedulingError
from repro.workloads.kernel import KernelCharacteristics


class JobQueue:
    """A FIFO queue of pending jobs.

    The co-scheduler pops the head job and may look ahead a bounded number
    of positions to find a good co-location partner — a common compromise
    between strict FIFO fairness and pairing quality.
    """

    def __init__(self) -> None:
        self._jobs: list[Job] = []
        self._next_id = 0
        self._clock = 0.0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(list(self._jobs))

    @property
    def empty(self) -> bool:
        """Whether no pending jobs remain."""
        return not self._jobs

    # ------------------------------------------------------------------
    def submit(self, kernel: KernelCharacteristics, submit_time: float | None = None) -> Job:
        """Submit one job for ``kernel`` and return it.

        An explicit ``submit_time`` must not lie behind the queue clock:
        silently accepting out-of-order arrivals would let a replayed trace
        corrupt every wait-time statistic downstream.  Accepted submissions
        advance the clock to their timestamp.
        """
        when = self._clock if submit_time is None else float(submit_time)
        if when < self._clock:
            raise SchedulingError(
                f"job submitted at t={when:.2f} behind the queue clock "
                f"t={self._clock:.2f}; arrivals must be time-ordered"
            )
        job = Job(job_id=self._next_id, kernel=kernel, submit_time=when)
        self._jobs.append(job)
        self._next_id += 1
        self._clock = when
        return job

    # ------------------------------------------------------------------
    def window(self, size: int) -> tuple[Job, ...]:
        """Up to ``size`` jobs from the head of the queue (for pair selection)."""
        if size < 1:
            raise SchedulingError(f"window size must be >= 1, got {size}")
        return tuple(self._jobs[:size])

    def remove(self, job: Job) -> None:
        """Remove a specific job from the queue (it is being dispatched)."""
        jobs = self._jobs
        for index, queued in enumerate(jobs):
            if queued is job:
                del jobs[index]
                return
        raise SchedulingError(f"job {job.job_id} is not in the queue")
