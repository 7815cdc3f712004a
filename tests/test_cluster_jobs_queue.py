"""Tests for jobs and the job queue."""

from __future__ import annotations

import pytest

from repro.cluster.job import Job, JobState
from repro.cluster.queue import JobQueue
from repro.errors import SchedulingError
from repro.workloads.suite import DEFAULT_SUITE


@pytest.fixture()
def queue():
    return JobQueue()


class TestJob:
    def test_lifecycle_forward_transitions(self):
        job = Job(job_id=0, kernel=DEFAULT_SUITE.get("stream"))
        job.transition(JobState.RUNNING)
        job.transition(JobState.COMPLETED)
        assert job.state is JobState.COMPLETED

    def test_backward_transition_rejected(self):
        job = Job(job_id=0, kernel=DEFAULT_SUITE.get("stream"))
        job.transition(JobState.COMPLETED)
        with pytest.raises(SchedulingError):
            job.transition(JobState.PENDING)

    def test_turnaround_requires_finish(self):
        job = Job(job_id=0, kernel=DEFAULT_SUITE.get("stream"), submit_time=1.0)
        with pytest.raises(SchedulingError):
            _ = job.turnaround_time
        job.start_time = 2.0
        job.finish_time = 5.0
        assert job.turnaround_time == pytest.approx(4.0)
        assert job.runtime == pytest.approx(3.0)

    def test_name(self):
        job = Job(job_id=3, kernel=DEFAULT_SUITE.get("dgemm"))
        assert job.name == "dgemm"


class TestJobQueue:
    def test_submit_assigns_increasing_ids(self, queue):
        first = queue.submit(DEFAULT_SUITE.get("stream"))
        second = queue.submit(DEFAULT_SUITE.get("dgemm"))
        assert (first.job_id, second.job_id) == (0, 1)
        assert len(queue) == 2

    def test_window_limits_lookahead(self, queue):
        for name in ("stream", "dgemm", "hgemm", "lud"):
            queue.submit(DEFAULT_SUITE.get(name))
        window = queue.window(2)
        assert [job.name for job in window] == ["stream", "dgemm"]
        assert len(queue.window(10)) == 4
        with pytest.raises(SchedulingError):
            queue.window(0)

    def test_remove_specific_job(self, queue):
        queue.submit(DEFAULT_SUITE.get("stream"))
        job = queue.submit(DEFAULT_SUITE.get("dgemm"))
        queue.remove(job)
        assert [j.name for j in queue] == ["stream"]
        with pytest.raises(SchedulingError):
            queue.remove(job)

    def test_clock_cannot_go_backwards(self, queue):
        queue.advance_clock(10.0)
        job = queue.submit(DEFAULT_SUITE.get("stream"))
        assert job.submit_time == 10.0
        with pytest.raises(SchedulingError):
            queue.advance_clock(5.0)

    def test_submit_behind_the_clock_rejected(self, queue):
        queue.advance_clock(10.0)
        with pytest.raises(SchedulingError, match="behind the queue clock"):
            queue.submit(DEFAULT_SUITE.get("stream"), submit_time=5.0)

    def test_submit_advances_the_clock(self, queue):
        queue.submit(DEFAULT_SUITE.get("stream"), submit_time=3.0)
        assert queue.clock == pytest.approx(3.0)
        # A later submission without an explicit time inherits the clock ...
        job = queue.submit(DEFAULT_SUITE.get("dgemm"))
        assert job.submit_time == pytest.approx(3.0)
        # ... and out-of-order explicit times are rejected, not reordered.
        with pytest.raises(SchedulingError):
            queue.submit(DEFAULT_SUITE.get("hgemm"), submit_time=1.0)

    def test_simultaneous_submissions_allowed(self, queue):
        first = queue.submit(DEFAULT_SUITE.get("stream"), submit_time=2.0)
        second = queue.submit(DEFAULT_SUITE.get("dgemm"), submit_time=2.0)
        assert first.submit_time == second.submit_time == pytest.approx(2.0)
