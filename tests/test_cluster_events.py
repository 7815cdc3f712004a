"""Tests for the discrete-event primitives: the heap and the event types."""

from __future__ import annotations

import pytest

from repro.cluster.events.events import ArrivalEvent, CompletionEvent, EventHeap
from repro.errors import SimulationError
from repro.workloads.suite import DEFAULT_SUITE


def _arrival(time: float, app: str = "stream") -> ArrivalEvent:
    return ArrivalEvent(time=time, kernel=DEFAULT_SUITE.get(app))


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            CompletionEvent(time=-1.0, node_id=0, jobs=())

    def test_non_finite_time_rejected(self):
        with pytest.raises(SimulationError):
            CompletionEvent(time=float("nan"), node_id=0, jobs=())


class TestEventHeap:
    def test_pops_in_time_order(self):
        heap = EventHeap()
        heap.push(_arrival(5.0))
        heap.push(_arrival(1.0))
        heap.push(_arrival(3.0))
        times = [heap.pop().time for _ in range(3)]
        assert times == [1.0, 3.0, 5.0]

    def test_priority_breaks_time_ties(self):
        heap = EventHeap()
        heap.push(_arrival(2.0))
        heap.push(CompletionEvent(time=2.0, node_id=0, jobs=()))
        order = [type(heap.pop()).__name__ for _ in range(2)]
        assert order == ["CompletionEvent", "ArrivalEvent"]

    def test_equal_time_and_priority_is_fifo(self):
        heap = EventHeap()
        apps = ["stream", "dgemm", "hgemm"]
        for app in apps:
            heap.push(_arrival(0.0, app))
        assert [heap.pop().kernel.name for _ in range(3)] == apps

    def test_pop_batch_returns_all_simultaneous_events(self):
        heap = EventHeap()
        heap.push(_arrival(1.0))
        heap.push(_arrival(1.0, "dgemm"))
        heap.push(_arrival(2.0, "hgemm"))
        batch = heap.pop_batch()
        assert [event.kernel.name for event in batch] == ["stream", "dgemm"]
        assert len(heap) == 1
        assert heap.pop().time == pytest.approx(2.0)

    def test_pop_batch_drains_interleaved_ties_in_push_order(self):
        # Regression for the tuple-keyed heap: a batch must contain every
        # event at the head timestamp — including ties pushed before and
        # after events at other times — ordered by (priority, push order).
        heap = EventHeap()
        heap.push(_arrival(1.0, "stream"))
        heap.push(_arrival(2.0, "tf32gemm"))
        heap.push(_arrival(1.0, "dgemm"))
        heap.push(CompletionEvent(time=1.0, node_id=3, jobs=()))
        heap.push(_arrival(1.0, "hgemm"))
        batch = heap.pop_batch()
        assert len(batch) == 4
        assert all(event.time == 1.0 for event in batch)
        # Completion outranks arrivals at the same time; arrivals keep
        # their submission order among themselves.
        assert type(batch[0]).__name__ == "CompletionEvent"
        assert [event.kernel.name for event in batch[1:]] == [
            "stream",
            "dgemm",
            "hgemm",
        ]
        # The later timestamp is untouched and becomes the next batch.
        assert [event.kernel.name for event in heap.pop_batch()] == ["tf32gemm"]
        assert heap.empty

    def test_push_many_matches_sequential_pushes(self):
        events = [
            _arrival(float(i % 5), app)
            for i, app in enumerate(
                ["stream", "dgemm", "hgemm", "stream", "dgemm", "hgemm", "stream"]
            )
        ]
        one_by_one = EventHeap()
        for event in events:
            one_by_one.push(event)
        bulk = EventHeap()
        bulk.push_many(events)
        assert len(bulk) == len(one_by_one)
        while not one_by_one.empty:
            assert bulk.pop() is one_by_one.pop()
        assert bulk.empty

    def test_push_many_then_push_keeps_sequence_order(self):
        heap = EventHeap()
        heap.push_many([_arrival(1.0, "stream"), _arrival(1.0, "dgemm")])
        heap.push(_arrival(1.0, "hgemm"))
        assert [heap.pop().kernel.name for _ in range(3)] == [
            "stream",
            "dgemm",
            "hgemm",
        ]

    def test_empty_heap_rejects_pop(self):
        heap = EventHeap()
        assert heap.empty
        with pytest.raises(SimulationError):
            heap.pop()
        with pytest.raises(SimulationError):
            heap.pop_batch()
