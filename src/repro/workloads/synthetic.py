"""Synthetic workload generation.

Two uses:

* **Model training breadth** — the paper trains its regression model on a
  "predetermined benchmark set"; generating extra synthetic kernels lets the
  offline workflow be exercised with training sets that are disjoint from
  the evaluation workloads (a stricter test than the paper's own setup).
* **Property-based testing** — hypothesis-style tests need a cheap way to
  produce valid, diverse kernels.

Kernels are drawn class-first: the generator picks a workload class and then
samples characteristics from ranges typical of that class, so synthetic
kernels classify consistently and behave plausibly in the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import check_count
from repro.errors import WorkloadError
from repro.gpu.spec import Pipe
from repro.workloads.kernel import KernelCharacteristics, WorkloadClass


@dataclass(frozen=True)
class _ClassRanges:
    """Sampling ranges for one workload class (all times in seconds)."""

    compute: tuple[float, float]
    memory: tuple[float, float]
    serial: tuple[float, float]
    l2_hit: tuple[float, float]
    occupancy: tuple[float, float]
    working_set_mb: tuple[float, float]
    l2_sensitivity: tuple[float, float]
    tensor_fraction: tuple[float, float]


_RANGES: dict[WorkloadClass, _ClassRanges] = {
    WorkloadClass.TI: _ClassRanges(
        compute=(0.7, 1.1),
        memory=(0.05, 0.45),
        serial=(0.01, 0.05),
        l2_hit=(0.75, 0.92),
        occupancy=(0.4, 0.65),
        working_set_mb=(15.0, 40.0),
        l2_sensitivity=(0.02, 0.15),
        tensor_fraction=(0.85, 0.95),
    ),
    WorkloadClass.CI: _ClassRanges(
        compute=(0.7, 1.1),
        memory=(0.15, 0.5),
        serial=(0.01, 0.06),
        l2_hit=(0.55, 0.85),
        occupancy=(0.5, 0.75),
        working_set_mb=(20.0, 100.0),
        l2_sensitivity=(0.35, 0.75),
        tensor_fraction=(0.0, 0.0),
    ),
    WorkloadClass.MI: _ClassRanges(
        compute=(0.1, 0.55),
        memory=(0.75, 1.1),
        serial=(0.01, 0.05),
        l2_hit=(0.02, 0.5),
        occupancy=(0.35, 0.8),
        working_set_mb=(150.0, 4000.0),
        l2_sensitivity=(0.05, 0.45),
        tensor_fraction=(0.0, 0.0),
    ),
    WorkloadClass.US: _ClassRanges(
        compute=(0.004, 0.010),
        memory=(0.004, 0.009),
        serial=(0.6, 0.9),
        l2_hit=(0.3, 0.65),
        occupancy=(0.2, 0.4),
        working_set_mb=(20.0, 70.0),
        l2_sensitivity=(0.2, 0.45),
        tensor_fraction=(0.0, 0.0),
    ),
}


class SyntheticWorkloadGenerator:
    """Deterministic random generator of plausible kernel models."""

    def __init__(self, seed: int = 2022) -> None:
        # NumPy seeds its generators from non-negative integers only.
        self._rng = np.random.default_rng(check_count("seed", seed, minimum=0))
        self._counter = 0

    def _uniform(self, bounds: tuple[float, float]) -> float:
        lo, hi = bounds
        if hi < lo:
            raise WorkloadError(f"invalid sampling range {bounds}")
        if hi == lo:
            return lo
        return float(self._rng.uniform(lo, hi))

    def sample_class(self, workload_class: WorkloadClass, name: str | None = None) -> KernelCharacteristics:
        """Sample one kernel belonging to ``workload_class``."""
        ranges = _RANGES[workload_class]
        self._counter += 1
        kernel_name = name or f"synthetic-{workload_class.value.lower()}-{self._counter:03d}"
        tensor_fraction = self._uniform(ranges.tensor_fraction)
        if tensor_fraction > 0:
            tensor_pipe = Pipe(
                self._rng.choice(
                    [Pipe.TENSOR_MIXED.value, Pipe.TENSOR_DOUBLE.value, Pipe.TENSOR_INT.value]
                )
            )
            pipe_fractions = {tensor_pipe: tensor_fraction, Pipe.FP32: 1.0 - tensor_fraction}
        else:
            fp64_fraction = float(self._rng.uniform(0.0, 0.4))
            pipe_fractions = (
                {Pipe.FP64: fp64_fraction, Pipe.FP32: 1.0 - fp64_fraction}
                if fp64_fraction > 0
                else {Pipe.FP32: 1.0}
            )
        return KernelCharacteristics(
            name=kernel_name,
            compute_time_full_s=self._uniform(ranges.compute),
            memory_time_full_s=self._uniform(ranges.memory),
            serial_time_s=self._uniform(ranges.serial),
            pipe_fractions=pipe_fractions,
            l2_hit_rate=self._uniform(ranges.l2_hit),
            occupancy=self._uniform(ranges.occupancy),
            working_set_mb=self._uniform(ranges.working_set_mb),
            l2_sensitivity=self._uniform(ranges.l2_sensitivity),
        )
