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

    gpcs: int
    option: MemoryOption
    power_cap_w: float
    relative_performance: float
    bound: str


def scalability_sweep(
    simulator: PerformanceSimulator,
    kernel: KernelCharacteristics,
    gpc_counts: Sequence[int] = SCALABILITY_GPC_COUNTS,
    options: Sequence[MemoryOption] = (MemoryOption.PRIVATE, MemoryOption.SHARED),
    power_cap_w: float = 250.0,
) -> tuple[ScalabilityPoint, ...]:
    """Solo relative performance of ``kernel`` vs. GPC count, per memory option."""
    return _sweep(simulator, kernel, gpc_counts, [(option, power_cap_w) for option in options])


def scalability_power_sweep(
    simulator: PerformanceSimulator,
    kernel: KernelCharacteristics,
    gpc_counts: Sequence[int] = SCALABILITY_GPC_COUNTS,
    power_caps: Sequence[float] = DEFAULT_POWER_CAPS,
    option: MemoryOption = MemoryOption.SHARED,
) -> tuple[ScalabilityPoint, ...]:
    """Solo relative performance vs. GPC count for several power caps."""
    return _sweep(simulator, kernel, gpc_counts, [(option, cap) for cap in power_caps])


def _sweep(
    simulator: PerformanceSimulator,
    kernel: KernelCharacteristics,
    gpc_counts: Sequence[int],
    settings: Sequence[tuple[MemoryOption, float]],
) -> tuple[ScalabilityPoint, ...]:
    """One point per (option, cap) setting and GPC count, in that order."""
    points: list[ScalabilityPoint] = []
    for option, power_cap_w in settings:
        for gpcs in gpc_counts:
            run = simulator.solo_run(kernel, solo_state(gpcs, option), power_cap_w)
            points.append(
                ScalabilityPoint(
                    gpcs=gpcs,
                    option=MemoryOption(option),
                    power_cap_w=power_cap_w,
                    relative_performance=run.relative_performance,
                    bound=run.bound,
                )
            )
    return tuple(points)
