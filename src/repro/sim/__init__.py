"""Execution simulator for the MIG-partitioned, power-capped GPU.

This package provides the "measured" side of the reproduction: given a
kernel model, a partition state, and a chip power cap it produces elapsed
times, relative performance, achieved bandwidth, clock throttling, and
profiler counters — the quantities the paper measures on a real A100.

Modules
-------
:mod:`repro.sim.roofline`
    Composition of the per-kernel time components (compute / memory /
    serial) for a given allocation and clock.
:mod:`repro.sim.interference`
    LLC pollution between Compute Instances sharing a GPU Instance (the
    *shared* option; the engine arbitrates their HBM bandwidth); the
    *private* option is interference free by construction, as on the real
    hardware.
:mod:`repro.sim.noise`
    Deterministic measurement noise so that "measured" values differ from
    model predictions the way real runs do.
:mod:`repro.sim.counters`
    The simulated Nsight-Compute profiler producing the Table 3 counters.
:mod:`repro.sim.engine`
    :class:`~repro.sim.engine.PerformanceSimulator` — solo runs, co-runs,
    reference runs, and profiling.
:mod:`repro.sim.sweep`
    Solo scalability sweeps behind the observation figures (Figures 4-5).
"""

from repro.sim.counters import CounterVector, collect_counters
from repro.sim.engine import PerformanceSimulator
from repro.sim.interference import InterferenceModel, InterferenceParams
from repro.sim.noise import NoiseModel
from repro.sim.results import CoRunResult, RunResult
from repro.sim.roofline import TimeComponents, bound_of
from repro.sim.sweep import (
    ScalabilityPoint,
    scalability_power_sweep,
    scalability_sweep,
)

__all__ = [
    "PerformanceSimulator",
    "CounterVector",
    "collect_counters",
    "InterferenceModel",
    "InterferenceParams",
    "NoiseModel",
    "RunResult",
    "CoRunResult",
    "TimeComponents",
    "bound_of",
    "ScalabilityPoint",
    "scalability_sweep",
    "scalability_power_sweep",
]
