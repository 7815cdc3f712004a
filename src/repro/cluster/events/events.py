"""Event primitives of the discrete-event cluster simulator.

The simulator's future is a binary heap of typed events ordered by
``(time, priority, sequence)``.  The heap holds only the events that
change the cluster's state: arrivals and completions.  The priority breaks
ties at identical timestamps deterministically — completions free nodes
before new arrivals are enqueued — and the monotonically increasing
sequence number makes the order of equal ``(time, priority)`` events
stable (insertion order), which is what keeps an all-at-t=0 batch queued
in submission order.

The heap is also the simulation's clock.  Every event time is checked
finite and non-negative when the event is built, the heap hands events
out in time order, and the loop pushes each completion no earlier than
the batch that dispatched it, so the time of the batch being handled
never moves backwards.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import ClassVar, Iterable

from repro.cluster.job import Job
from repro.errors import SimulationError
from repro.workloads.kernel import KernelCharacteristics


@dataclass(frozen=True)
class Event:
    """Base class of everything that can be scheduled on the event heap."""

    #: Tie-break rank at identical timestamps (lower fires first).
    priority: ClassVar[int] = 50

    time: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0:
            raise SimulationError(f"event time must be finite and >= 0, got {self.time}")


@dataclass(frozen=True)
class CompletionEvent(Event):
    """A node finished its dispatched job group and becomes free."""

    priority: ClassVar[int] = 10

    node_id: int
    jobs: tuple[Job, ...]


@dataclass(frozen=True)
class ArrivalEvent(Event):
    """One trace entry's kernel arrives and is submitted to the job queue."""

    priority: ClassVar[int] = 30

    kernel: KernelCharacteristics


class EventHeap:
    """A stable min-heap of :class:`Event` objects.

    Entries are plain ``(time, priority, sequence, event)`` tuples so heap
    comparisons run at C speed; the unique sequence number guarantees the
    comparison never reaches the (incomparable) event object and keeps
    equal ``(time, priority)`` events in insertion order.
    """

    __slots__ = ("_heap", "_sequence")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def empty(self) -> bool:
        """Whether no future events remain."""
        return not self._heap

    def push(self, event: Event) -> None:
        """Schedule ``event``."""
        heapq.heappush(
            self._heap, (event.time, type(event).priority, self._sequence, event)
        )
        self._sequence += 1

    def push_many(self, events: Iterable[Event]) -> None:
        """Schedule a whole batch of events in O(n + len(heap)).

        Bulk-loading a trace event by event costs O(n log n) sift-ups;
        appending every entry and re-heapifying once is O(n) and yields the
        exact same pop order (the ``(time, priority, sequence)`` key is a
        total order, so any valid heap drains identically).
        """
        heap = self._heap
        sequence = self._sequence
        for event in events:
            heap.append((event.time, type(event).priority, sequence, event))
            sequence += 1
        self._sequence = sequence
        heapq.heapify(heap)

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("the event heap is empty")
        return heapq.heappop(self._heap)[3]

    def pop_batch(self) -> tuple[Event, ...]:
        """Remove and return every event sharing the earliest timestamp.

        Processing simultaneous events as one batch before any dispatch
        decision is what lets a completion and an arrival at the same
        instant see each other — exactly like the batch scheduler's
        single-timestep view of the queue.
        """
        heap = self._heap
        if not heap:
            raise SimulationError("the event heap is empty")
        now = heap[0][0]
        batch = []
        while heap and heap[0][0] == now:
            batch.append(heapq.heappop(heap)[3])
        return tuple(batch)
