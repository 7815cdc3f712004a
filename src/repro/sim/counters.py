"""Simulated Nsight-Compute profiler.

The paper collects eight performance counters per benchmark during a solo
profile run without MIG or power capping (Table 3):

====  ==========================  ===================================
F1    Compute Throughput [%]      SM compute-pipe utilization (SOL)
F2    Memory Throughput [%]       memory-subsystem utilization (SOL)
F3    DRAM Throughput [%]         achieved / peak HBM bandwidth
F4    L2 Hit Rate [%]             LLC hit rate
F5    Occupancy [%]               achieved SM occupancy
F6    Tensor (MIXED) [%]          FP16/BF16/TF32 Tensor-pipe utilization
F7    Tensor (DOUBLE) [%]         FP64 Tensor-pipe utilization
F8    Tensor (INTEGER) [%]        INT8/INT4 Tensor-pipe utilization
====  ==========================  ===================================

Here the counters are produced analytically from the kernel model evaluated
at the profile operating point (full chip, boost clock) — which is how a
well-behaved kernel's Nsight metrics relate to its roofline behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.spec import A100_SPEC, GPUSpec, Pipe
from repro.workloads.kernel import KernelCharacteristics

#: How much the L2/interconnect utilization exceeds the DRAM utilization for
#: cache-friendly kernels (a kernel that hits in L2 keeps the memory
#: subsystem busy without generating DRAM traffic).
_L2_TRAFFIC_AMPLIFICATION = 0.40


@dataclass(frozen=True)
class CounterVector:
    """The Table 3 performance counters of one benchmark (all in percent)."""

    compute_throughput: float
    memory_throughput: float
    dram_throughput: float
    l2_hit_rate: float
    occupancy: float
    tensor_mixed: float
    tensor_double: float
    tensor_int: float

    #: Counter names, in the paper's F1..F8 order.
    FIELD_ORDER = (
        "compute_throughput",
        "memory_throughput",
        "dram_throughput",
        "l2_hit_rate",
        "occupancy",
        "tensor_mixed",
        "tensor_double",
        "tensor_int",
    )

    def __post_init__(self) -> None:
        for name in self.FIELD_ORDER:
            value = getattr(self, name)
            if not (0.0 <= value <= 100.0 + 1e-9):
                raise ValueError(f"counter {name} must be in [0, 100], got {value}")

    # ------------------------------------------------------------------
    def as_array(self) -> np.ndarray:
        """The counters as a NumPy vector in F1..F8 order."""
        return np.array([getattr(self, name) for name in self.FIELD_ORDER], dtype=float)

    @classmethod
    def from_array(cls, values: np.ndarray) -> "CounterVector":
        """Rebuild a counter vector from :meth:`as_array` output."""
        values = np.asarray(values, dtype=float)
        if values.shape != (len(cls.FIELD_ORDER),):
            raise ValueError(
                f"expected {len(cls.FIELD_ORDER)} counters, got shape {values.shape}"
            )
        return cls(**{name: float(v) for name, v in zip(cls.FIELD_ORDER, values)})

    @property
    def tensor_total(self) -> float:
        """Summed Tensor-pipe utilization (percent)."""
        return self.tensor_mixed + self.tensor_double + self.tensor_int


def collect_counters(
    kernel: KernelCharacteristics,
    spec: GPUSpec = A100_SPEC,
) -> CounterVector:
    """Profile a kernel: produce its Table 3 counter vector.

    The profile run matches the paper's methodology: exclusive solo run on
    the full GPU, MIG disabled, no power cap (the default limit is active
    but the profile operating point is taken at the boost clock — profile
    counters are utilization ratios and are insensitive to mild throttling).
    """
    elapsed = kernel.reference_time_s
    compute_util = min(1.0, kernel.compute_time_full_s / elapsed)
    dram_util = min(1.0, kernel.memory_time_full_s / elapsed)
    memory_subsystem_util = min(
        1.0, dram_util * (1.0 + _L2_TRAFFIC_AMPLIFICATION * kernel.l2_hit_rate)
    )

    def tensor_pct(pipe: Pipe) -> float:
        return 100.0 * compute_util * kernel.pipe_fractions.get(pipe, 0.0)

    return CounterVector(
        compute_throughput=100.0 * compute_util,
        memory_throughput=100.0 * memory_subsystem_util,
        dram_throughput=100.0 * dram_util,
        l2_hit_rate=100.0 * kernel.l2_hit_rate,
        occupancy=100.0 * kernel.occupancy,
        tensor_mixed=tensor_pct(Pipe.TENSOR_MIXED),
        tensor_double=tensor_pct(Pipe.TENSOR_DOUBLE),
        tensor_int=tensor_pct(Pipe.TENSOR_INT),
    )
