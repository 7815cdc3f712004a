"""Roofline-style time composition.

Each kernel is described by three time components (see
:class:`~repro.workloads.kernel.KernelCharacteristics`).  For a concrete
allocation and clock the components scale differently:

* **compute** scales inversely with the number of allocated GPCs and with
  the clock frequency;
* **memory** scales inversely with the DRAM bandwidth available to the
  application (its own slices under the private option, its contention-
  adjusted share under the shared option) and does not depend on the core
  clock;
* **serial** does not scale at all.

The engine's solve tables (:class:`repro.sim.engine._Shape`) apply that
scaling; this module holds the scaled components and their composition.

The elapsed time is the roofline composition ``max(compute, memory) +
serial``: compute and memory can overlap (GPUs overlap them aggressively),
the serial part cannot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError


@dataclass(frozen=True)
class TimeComponents:
    """Scaled time components of one application on one allocation."""

    compute_s: float
    memory_s: float
    serial_s: float

    def __post_init__(self) -> None:
        for label, value in (
            ("compute_s", self.compute_s),
            ("memory_s", self.memory_s),
            ("serial_s", self.serial_s),
        ):
            if value < 0:
                raise SimulationError(f"{label} must be non-negative, got {value}")


def bound_of(components: TimeComponents) -> str:
    """Which component dominates: ``"compute"``, ``"memory"`` or ``"serial"``."""
    scalable = max(components.compute_s, components.memory_s)
    if components.serial_s >= scalable:
        return "serial"
    if components.compute_s >= components.memory_s:
        return "compute"
    return "memory"

