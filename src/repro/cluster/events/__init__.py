"""Discrete-event simulation of the cluster: heap, events, simulator.

* :mod:`repro.cluster.events.events` — the event heap, which also orders
  simulated time, and the two event types (arrival, completion).
* :mod:`repro.cluster.events.simulator` — :class:`ClusterSimulator`, the
  event loop driving the co-scheduler, nodes, and power manager.
* :mod:`repro.cluster.events.report` — :class:`SimulationReport` online
  metrics (tail latencies, utilization, energy-to-solution).
"""

from repro.cluster.events.events import (
    ArrivalEvent,
    CompletionEvent,
    Event,
    EventHeap,
)
from repro.cluster.events.report import LatencyStats, SimulationReport
from repro.cluster.events.simulator import ClusterSimulator, SimulationConfig

__all__ = [
    "ArrivalEvent",
    "CompletionEvent",
    "Event",
    "EventHeap",
    "LatencyStats",
    "SimulationReport",
    "ClusterSimulator",
    "SimulationConfig",
]
