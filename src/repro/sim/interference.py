"""Interference between applications that share a memory domain.

Partitioning isolates memory resources *between* memory domains (GPU
Instances on MIG, NPS partitions on independent-axes parts) but not between
the applications *inside* one domain.  The paper's shared option therefore
trades isolation for bandwidth: a memory-hungry application can use the
whole pool's HBM bandwidth, but every co-located application now contends
for the pool's LLC share and for that bandwidth.

Two effects are modelled:

* **LLC pollution** — a co-runner with a large working set evicts the
  application's cache lines.  This both increases DRAM traffic (memory-time
  penalty) and adds latency stalls to the compute pipes (compute-time
  penalty).  How strongly an application suffers is its
  ``l2_sensitivity``; how much pressure a co-runner exerts grows with its
  working-set size relative to the LLC capacity and with its bandwidth
  appetite.
* **Bandwidth contention** — when the combined DRAM demand exceeds the
  pool's bandwidth, each application draws what the others leave, and at
  least a share proportional to its demand.  That arbitration lives in the
  engine's pool fixed point (``_Shape._settle`` in :mod:`repro.sim.engine`);
  this module supplies the LLC-pollution penalties.

Under the private option both effects are zero by construction, mirroring
the hardware guarantee the paper relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.gpu.spec import A100_SPEC, GPUSpec
from repro.workloads.kernel import KernelCharacteristics


@dataclass(frozen=True)
class InterferenceParams:
    """Tunable strengths of the two interference mechanisms.

    Attributes
    ----------
    compute_l2_alpha:
        Maximum fractional compute-time inflation caused by a fully
        polluting co-runner on a fully sensitive application.
    memory_l2_alpha:
        Maximum fractional memory-time inflation from the same cause.
    bandwidth_pressure_weight:
        How much a co-runner's *bandwidth* appetite (as opposed to its
        working-set size) contributes to the cache pressure it exerts.
    """

    compute_l2_alpha: float = 0.45
    memory_l2_alpha: float = 0.35
    bandwidth_pressure_weight: float = 0.35

    def __post_init__(self) -> None:
        for label, value in (
            ("compute_l2_alpha", self.compute_l2_alpha),
            ("memory_l2_alpha", self.memory_l2_alpha),
            ("bandwidth_pressure_weight", self.bandwidth_pressure_weight),
        ):
            if not (0.0 <= value <= 2.0):
                raise ConfigurationError(f"{label} must be in [0, 2], got {value}")


class InterferenceModel:
    """LLC/HBM contention model for applications sharing a memory domain."""

    def __init__(self, spec: GPUSpec = A100_SPEC) -> None:
        self._params = InterferenceParams()
        self._spec = spec

    # ------------------------------------------------------------------
    # Cache pressure / penalties
    # ------------------------------------------------------------------
    def _pool_llc_mb(self, pool_mem_slices: int | None) -> float:
        """LLC capacity of the contended pool (the hosting memory domain).

        ``None`` means the full chip.  Partition schemes distribute the LLC
        with the memory domains (MIG ties it to a GI's slices, NPS modes to
        the stacks of a partition), so a sub-chip pool only owns a
        proportional share — the same co-runner working set pollutes a far
        larger fraction of it.  The parameter keeps its historical
        ``pool_mem_slices`` name; it counts the pool's memory domains on
        any scheme.
        """
        if pool_mem_slices is None or pool_mem_slices == self._spec.n_mem_slices:
            return self._spec.l2_cache_mb
        if not (0 < pool_mem_slices <= self._spec.n_mem_slices):
            raise SimulationError(
                f"pool_mem_slices must be in (0, {self._spec.n_mem_slices}], "
                f"got {pool_mem_slices}"
            )
        return self._spec.l2_cache_mb * pool_mem_slices / self._spec.n_mem_slices

    def cache_pressure(
        self,
        co_runner: KernelCharacteristics,
        pool_mem_slices: int | None = None,
    ) -> float:
        """How much LLC pressure ``co_runner`` exerts, in ``[0, 1]``.

        Pressure grows with the co-runner's working set relative to the
        pool's LLC capacity (see :meth:`_pool_llc_mb`) and, to a lesser
        extent, with its DRAM-bandwidth appetite (streaming kernels keep
        refilling the cache even if a single pass fits).
        """
        footprint = min(
            1.0, co_runner.working_set_mb / self._pool_llc_mb(pool_mem_slices)
        )
        bandwidth_appetite = min(
            1.0,
            co_runner.memory_time_full_s / max(co_runner.reference_time_s, 1e-12),
        )
        weight = self._params.bandwidth_pressure_weight
        return min(1.0, footprint * (1.0 - weight) + bandwidth_appetite * weight)

    def compute_penalty(
        self,
        kernel: KernelCharacteristics,
        co_runners: Sequence[KernelCharacteristics],
        pool_mem_slices: int | None = None,
    ) -> float:
        """Multiplier (>= 1) on the compute time caused by LLC pollution."""
        if not co_runners:
            return 1.0
        pressure = max(
            self.cache_pressure(other, pool_mem_slices) for other in co_runners
        )
        return 1.0 + self._params.compute_l2_alpha * kernel.l2_sensitivity * pressure

    def memory_penalty(
        self,
        kernel: KernelCharacteristics,
        co_runners: Sequence[KernelCharacteristics],
        pool_mem_slices: int | None = None,
    ) -> float:
        """Multiplier (>= 1) on the memory time caused by LLC pollution."""
        if not co_runners:
            return 1.0
        pressure = max(
            self.cache_pressure(other, pool_mem_slices) for other in co_runners
        )
        return 1.0 + self._params.memory_l2_alpha * kernel.l2_sensitivity * pressure
