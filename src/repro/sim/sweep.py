"""Parameter sweeps over the simulator.

These helpers produce the raw data behind the paper's solo observation
figures:

* :func:`scalability_sweep` — solo relative performance vs. GPC count for
  both memory options at a fixed power cap (Figure 4).
* :func:`scalability_power_sweep` — solo relative performance vs. GPC count
  for several power caps at a fixed memory option (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.config import DEFAULT_POWER_CAPS, SCALABILITY_GPC_COUNTS
from repro.gpu.mig import MemoryOption, solo_state
from repro.sim.engine import PerformanceSimulator
from repro.workloads.kernel import KernelCharacteristics


@dataclass(frozen=True)
class ScalabilityPoint:
    """One point of a solo scalability curve."""

    kernel_name: str
    gpcs: int
    option: MemoryOption
    power_cap_w: float
    relative_performance: float
    relative_frequency: float
    bound: str


def scalability_sweep(
    simulator: PerformanceSimulator,
    kernel: KernelCharacteristics,
    gpc_counts: Sequence[int] = SCALABILITY_GPC_COUNTS,
    options: Sequence[MemoryOption] = (MemoryOption.PRIVATE, MemoryOption.SHARED),
    power_cap_w: float = 250.0,
) -> tuple[ScalabilityPoint, ...]:
    """Solo relative performance of ``kernel`` vs. GPC count, per memory option."""
    points: list[ScalabilityPoint] = []
    for option in options:
        for gpcs in gpc_counts:
            run = simulator.solo_run(kernel, solo_state(gpcs, option), power_cap_w)
            points.append(
                ScalabilityPoint(
                    kernel_name=kernel.name,
                    gpcs=gpcs,
                    option=MemoryOption(option),
                    power_cap_w=power_cap_w,
                    relative_performance=run.relative_performance,
                    relative_frequency=run.relative_frequency,
                    bound=run.bound,
                )
            )
    return tuple(points)


def scalability_power_sweep(
    simulator: PerformanceSimulator,
    kernel: KernelCharacteristics,
    gpc_counts: Sequence[int] = SCALABILITY_GPC_COUNTS,
    power_caps: Sequence[float] = DEFAULT_POWER_CAPS,
    option: MemoryOption = MemoryOption.SHARED,
) -> tuple[ScalabilityPoint, ...]:
    """Solo relative performance vs. GPC count for several power caps."""
    points: list[ScalabilityPoint] = []
    for power_cap_w in power_caps:
        for gpcs in gpc_counts:
            run = simulator.solo_run(kernel, solo_state(gpcs, option), power_cap_w)
            points.append(
                ScalabilityPoint(
                    kernel_name=kernel.name,
                    gpcs=gpcs,
                    option=MemoryOption(option),
                    power_cap_w=power_cap_w,
                    relative_performance=run.relative_performance,
                    relative_frequency=run.relative_frequency,
                    bound=run.bound,
                )
            )
    return tuple(points)
