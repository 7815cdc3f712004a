"""Micro-benchmarks: ``stream`` and ``randomaccess``.

The paper complements Rodinia and CUTLASS with two classic memory
micro-benchmarks:

* ``stream`` — the CUDA STREAM triad: pure sequential bandwidth, essentially
  no arithmetic, no cache reuse.  It is the canonical *memory-intensive*
  workload, and the one whose performance depends most strongly on the
  private-vs-shared LLC/HBM option (Figure 4).
* ``randomaccess`` — GUPS-style random updates: bandwidth- and latency-bound
  with almost no cache hits.

Both are modelled with a small compute component (address generation) so
that a one-GPC allocation cannot quite saturate the chip bandwidth — which
reproduces the dip the paper observes for ``stream`` with the shared option
at very small partitions.
"""

from __future__ import annotations

from repro.gpu.spec import Pipe
from repro.workloads.kernel import KernelCharacteristics


def micro_kernels() -> dict[str, KernelCharacteristics]:
    """The ``stream`` and ``randomaccess`` kernel models."""
    # CUDA STREAM triad (sequential bandwidth)
    stream = KernelCharacteristics(
        name="stream",
        compute_time_full_s=0.18,
        memory_time_full_s=0.95,
        serial_time_s=0.010,
        pipe_fractions={Pipe.FP64: 1.0},
        l2_hit_rate=0.02,
        occupancy=0.80,
        working_set_mb=3000.0,
        l2_sensitivity=0.05,
    )
    # GUPS-style random memory updates
    randomaccess = KernelCharacteristics(
        name="randomaccess",
        compute_time_full_s=0.10,
        memory_time_full_s=0.92,
        serial_time_s=0.010,
        pipe_fractions={Pipe.FP32: 1.0},
        l2_hit_rate=0.05,
        occupancy=0.40,
        working_set_mb=4000.0,
        l2_sensitivity=0.10,
    )
    return {kernel.name: kernel for kernel in (stream, randomaccess)}
