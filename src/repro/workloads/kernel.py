"""Analytic kernel model.

A kernel is described by how long its three time components would take on
the *full* GPU at the boost clock, plus a handful of micro-architectural
characteristics that drive power, interference, and the simulated profiler:

* ``compute_time_full_s`` — time to push the kernel's arithmetic through the
  compute pipes of all 8 GPCs at the boost clock.  This component scales
  inversely with the number of allocated GPCs and with the clock.
* ``memory_time_full_s`` — time to move the kernel's DRAM traffic at the
  full-chip HBM bandwidth.  This component scales inversely with the number
  of LLC/HBM slices available (private option) and is clock-independent.
* ``serial_time_s`` — launch overhead, host interaction, and intrinsically
  serial work.  It scales with nothing, which is what makes the paper's
  "Un-Scalable" class un-scalable.

The elapsed time on a given allocation is (roughly) the maximum of the two
scalable components plus the serial time; see
:mod:`repro.sim.roofline` for the exact composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping

from repro.errors import WorkloadError
from repro.gpu.spec import CUDA_PIPES, TENSOR_PIPES, Pipe


class WorkloadClass(str, Enum):
    """The paper's four benchmark categories (Table 7)."""

    #: Tensor-Core intensive.
    TI = "TI"
    #: (non-Tensor) compute intensive.
    CI = "CI"
    #: Memory intensive.
    MI = "MI"
    #: Un-scalable.
    US = "US"


@dataclass(frozen=True)
class KernelCharacteristics:
    """Complete analytic description of one benchmark kernel.

    Attributes
    ----------
    name:
        Benchmark name as used by the paper (e.g. ``"dgemm"``, ``"stream"``).
    compute_time_full_s:
        Compute-pipe time on the full chip at the boost clock, in seconds.
    memory_time_full_s:
        DRAM-traffic time at full-chip bandwidth, in seconds.
    serial_time_s:
        Non-scalable time (kernel-launch overhead, serial phases), seconds.
    pipe_fractions:
        Fraction of the compute work executed on each :class:`Pipe`.
        Must sum to 1 when there is any compute work.
    l2_hit_rate:
        L2 (LLC) hit rate observed in a solo run, in ``[0, 1]``.
    occupancy:
        Achieved SM occupancy, in ``[0, 1]``.
    working_set_mb:
        Cache-relevant working-set size in MiB; drives how much LLC pressure
        this kernel puts on a co-located one under the shared option.
    l2_sensitivity:
        How strongly this kernel suffers when its LLC share is polluted by a
        co-runner, in ``[0, 1]``.
    description:
        Free-form description shown in reports.
    tags:
        Arbitrary labels (e.g. the originating suite).
    """

    name: str
    compute_time_full_s: float
    memory_time_full_s: float
    serial_time_s: float
    pipe_fractions: Mapping[Pipe, float] = field(
        default_factory=lambda: {Pipe.FP32: 1.0}
    )
    l2_hit_rate: float = 0.5
    occupancy: float = 0.5
    working_set_mb: float = 64.0
    l2_sensitivity: float = 0.3
    description: str = ""
    tags: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("kernel name must be non-empty")
        for label, value in (
            ("compute_time_full_s", self.compute_time_full_s),
            ("memory_time_full_s", self.memory_time_full_s),
            ("serial_time_s", self.serial_time_s),
            ("working_set_mb", self.working_set_mb),
        ):
            if value < 0 or not math.isfinite(value):
                raise WorkloadError(f"{self.name}: {label} must be finite and >= 0, got {value}")
        if self.compute_time_full_s + self.memory_time_full_s + self.serial_time_s <= 0:
            raise WorkloadError(f"{self.name}: kernel must have a positive total time")
        for label, value in (
            ("l2_hit_rate", self.l2_hit_rate),
            ("occupancy", self.occupancy),
            ("l2_sensitivity", self.l2_sensitivity),
        ):
            if not (0.0 <= value <= 1.0):
                raise WorkloadError(f"{self.name}: {label} must be in [0, 1], got {value}")
        # Plain floats, so the engine's scalar and batched solves round
        # alike whatever number type the caller passed (from CPython 3.12
        # the built-in ``sum`` compensates floats but not NumPy scalars).
        for label in (
            "compute_time_full_s",
            "memory_time_full_s",
            "serial_time_s",
            "working_set_mb",
            "l2_hit_rate",
            "occupancy",
            "l2_sensitivity",
        ):
            object.__setattr__(self, label, float(getattr(self, label)))
        fractions = {Pipe(p): float(v) for p, v in self.pipe_fractions.items()}
        for pipe, frac in fractions.items():
            if frac < 0:
                raise WorkloadError(
                    f"{self.name}: pipe fraction for {pipe.value} must be >= 0, got {frac}"
                )
        total = sum(fractions.values())
        if self.compute_time_full_s > 0:
            if not math.isclose(total, 1.0, rel_tol=1e-6, abs_tol=1e-6):
                raise WorkloadError(
                    f"{self.name}: pipe fractions must sum to 1, got {total:.4f}"
                )
        object.__setattr__(self, "pipe_fractions", fractions)
        object.__setattr__(self, "tags", tuple(self.tags))

    # ------------------------------------------------------------------
    # Derived characteristics
    # ------------------------------------------------------------------
    @property
    def reference_time_s(self) -> float:
        """Elapsed time on the full chip at the boost clock (no power cap).

        This ignores power throttling (the simulator adds that); it is the
        natural time scale of the kernel.
        """
        return max(self.compute_time_full_s, self.memory_time_full_s) + self.serial_time_s

    @property
    def cuda_fraction(self) -> float:
        """Fraction of compute work running on the CUDA (FP32/FP64) pipes."""
        return sum(self.pipe_fractions.get(p, 0.0) for p in CUDA_PIPES)

    @property
    def tensor_fraction(self) -> float:
        """Fraction of compute work running on the Tensor-Core pipes."""
        return sum(self.pipe_fractions.get(p, 0.0) for p in TENSOR_PIPES)

    @property
    def uses_tensor_cores(self) -> bool:
        """Whether any non-negligible part of the compute work uses Tensor Cores."""
        return self.tensor_fraction > 0.01

    @property
    def compute_memory_ratio(self) -> float:
        """Ratio of compute time to memory time (∞ when there is no memory traffic)."""
        if self.memory_time_full_s <= 0:
            return math.inf
        return self.compute_time_full_s / self.memory_time_full_s

    @property
    def serial_fraction(self) -> float:
        """Fraction of the reference time spent in the non-scalable component."""
        return self.serial_time_s / self.reference_time_s

    def dominant_pipe(self) -> Pipe:
        """The pipe executing the largest share of the compute work."""
        if not self.pipe_fractions:
            return Pipe.FP32
        return max(self.pipe_fractions, key=lambda p: self.pipe_fractions[p])

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "KernelCharacteristics":
        """A copy with all time components scaled by ``factor`` (> 0)."""
        if factor <= 0:
            raise WorkloadError(f"scale factor must be positive, got {factor}")
        return replace(
            self,
            compute_time_full_s=self.compute_time_full_s * factor,
            memory_time_full_s=self.memory_time_full_s * factor,
            serial_time_s=self.serial_time_s * factor,
        )

    def with_name(self, name: str) -> "KernelCharacteristics":
        """A copy under a different name."""
        return replace(self, name=name)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: compute={self.compute_time_full_s:.3f}s "
            f"memory={self.memory_time_full_s:.3f}s serial={self.serial_time_s:.3f}s "
            f"tensor={self.tensor_fraction:.2f} l2hit={self.l2_hit_rate:.2f} "
            f"occ={self.occupancy:.2f}"
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.summary()
