"""Rodinia-like benchmark kernels.

The paper draws its non-GEMM workloads from the Rodinia suite (plus two
micro-benchmarks defined in :mod:`repro.workloads.micro`).  Each entry below
is an analytic model whose parameters are chosen to reproduce the behaviour
the paper reports for the benchmark's class (Table 7):

* **CI** kernels (hotspot, lavaMD, srad, heartwell) are dominated by CUDA-
  core arithmetic, have moderate DRAM traffic, and a meaningful amount of L2
  reuse — so they scale with GPCs, are moderately power-sensitive, and are
  the ones hurt by LLC pollution from a co-runner under the shared option.
* **MI** kernels (gaussian, leukocyte, lud) are DRAM-bandwidth bound — they
  scale with the number of memory slices (private option) or with the
  bandwidth left over by the co-runner (shared option), and they barely
  notice power caps.
* **US** kernels (backprop, bfs, dwt2d, kmeans, needle, pathfinder) spend
  almost all of their time in launch overhead, host interaction, and tiny
  kernels — they neither scale with GPCs nor care about power caps, which is
  exactly why the paper's classifier puts them in their own category.

The time constants are expressed for the full chip at the boost clock; only
ratios matter for the paper's metrics (everything is reported as relative
performance).
"""

from __future__ import annotations

from repro.gpu.spec import Pipe
from repro.workloads.kernel import KernelCharacteristics


def _ci(
    name: str,
    compute: float,
    memory: float,
    serial: float,
    l2_hit: float,
    occupancy: float,
    working_set_mb: float,
    l2_sensitivity: float,
    fp64_fraction: float = 0.0,
) -> KernelCharacteristics:
    """Helper for compute-intensive Rodinia kernels."""
    pipe_fractions = (
        {Pipe.FP32: 1.0 - fp64_fraction, Pipe.FP64: fp64_fraction}
        if fp64_fraction > 0
        else {Pipe.FP32: 1.0}
    )
    return KernelCharacteristics(
        name=name,
        compute_time_full_s=compute,
        memory_time_full_s=memory,
        serial_time_s=serial,
        pipe_fractions=pipe_fractions,
        l2_hit_rate=l2_hit,
        occupancy=occupancy,
        working_set_mb=working_set_mb,
        l2_sensitivity=l2_sensitivity,
    )


def _mi(
    name: str,
    compute: float,
    memory: float,
    serial: float,
    l2_hit: float,
    occupancy: float,
    working_set_mb: float,
    l2_sensitivity: float,
) -> KernelCharacteristics:
    """Helper for memory-intensive Rodinia kernels."""
    return KernelCharacteristics(
        name=name,
        compute_time_full_s=compute,
        memory_time_full_s=memory,
        serial_time_s=serial,
        pipe_fractions={Pipe.FP32: 1.0},
        l2_hit_rate=l2_hit,
        occupancy=occupancy,
        working_set_mb=working_set_mb,
        l2_sensitivity=l2_sensitivity,
    )


def _us(
    name: str,
    compute: float,
    memory: float,
    serial: float,
    l2_hit: float,
    occupancy: float,
    working_set_mb: float,
    l2_sensitivity: float,
) -> KernelCharacteristics:
    """Helper for un-scalable Rodinia kernels (launch-/serial-dominated)."""
    return KernelCharacteristics(
        name=name,
        compute_time_full_s=compute,
        memory_time_full_s=memory,
        serial_time_s=serial,
        pipe_fractions={Pipe.FP32: 1.0},
        l2_hit_rate=l2_hit,
        occupancy=occupancy,
        working_set_mb=working_set_mb,
        l2_sensitivity=l2_sensitivity,
    )


def rodinia_kernels() -> dict[str, KernelCharacteristics]:
    """All Rodinia-like kernel models used by the paper's evaluation."""
    kernels = [
        # ------------------------------------------------------------------
        # Non-Tensor compute-intensive kernels (class CI)
        # ------------------------------------------------------------------
        # Thermal simulation stencil (structured grid)
        _ci(
            "hotspot",
            compute=0.88,
            memory=0.30,
            serial=0.020,
            l2_hit=0.65,
            occupancy=0.70,
            working_set_mb=60.0,
            l2_sensitivity=0.55,
        ),
        # N-body molecular dynamics within a cutoff radius
        _ci(
            "lavaMD",
            compute=0.92,
            memory=0.18,
            serial=0.030,
            l2_hit=0.80,
            occupancy=0.55,
            working_set_mb=25.0,
            l2_sensitivity=0.45,
            fp64_fraction=0.35,
        ),
        # Speckle-reducing anisotropic diffusion (imaging)
        _ci(
            "srad",
            compute=0.86,
            memory=0.42,
            serial=0.030,
            l2_hit=0.72,
            occupancy=0.65,
            working_set_mb=80.0,
            l2_sensitivity=0.70,
        ),
        # Heart-wall tracking (medical imaging)
        _ci(
            "heartwell",
            compute=0.84,
            memory=0.38,
            serial=0.040,
            l2_hit=0.68,
            occupancy=0.60,
            working_set_mb=70.0,
            l2_sensitivity=0.60,
        ),
        # ------------------------------------------------------------------
        # Memory-intensive kernels (class MI)
        # ------------------------------------------------------------------
        # Gaussian elimination (dense linear algebra)
        _mi(
            "gaussian",
            compute=0.40,
            memory=0.88,
            serial=0.040,
            l2_hit=0.35,
            occupancy=0.50,
            working_set_mb=500.0,
            l2_sensitivity=0.35,
        ),
        # Leukocyte tracking in video frames
        _mi(
            "leukocyte",
            compute=0.52,
            memory=0.90,
            serial=0.030,
            l2_hit=0.45,
            occupancy=0.55,
            working_set_mb=300.0,
            l2_sensitivity=0.40,
        ),
        # LU decomposition (dense linear algebra)
        _mi(
            "lud",
            compute=0.55,
            memory=0.85,
            serial=0.030,
            l2_hit=0.50,
            occupancy=0.50,
            working_set_mb=200.0,
            l2_sensitivity=0.45,
        ),
        # ------------------------------------------------------------------
        # Un-scalable kernels (class US)
        # ------------------------------------------------------------------
        # Back-propagation training of a small MLP
        _us(
            "backprop",
            compute=0.006,
            memory=0.005,
            serial=0.78,
            l2_hit=0.50,
            occupancy=0.30,
            working_set_mb=40.0,
            l2_sensitivity=0.30,
        ),
        # Breadth-first search on an irregular graph
        _us(
            "bfs",
            compute=0.003,
            memory=0.004,
            serial=0.82,
            l2_hit=0.30,
            occupancy=0.25,
            working_set_mb=60.0,
            l2_sensitivity=0.25,
        ),
        # 2D discrete wavelet transform
        _us(
            "dwt2d",
            compute=0.007,
            memory=0.005,
            serial=0.75,
            l2_hit=0.55,
            occupancy=0.35,
            working_set_mb=50.0,
            l2_sensitivity=0.35,
        ),
        # K-means clustering with host-side reassignment
        _us(
            "kmeans",
            compute=0.005,
            memory=0.005,
            serial=0.80,
            l2_hit=0.60,
            occupancy=0.30,
            working_set_mb=35.0,
            l2_sensitivity=0.30,
        ),
        # Needleman-Wunsch sequence alignment (wavefront)
        _us(
            "needle",
            compute=0.006,
            memory=0.004,
            serial=0.77,
            l2_hit=0.50,
            occupancy=0.28,
            working_set_mb=45.0,
            l2_sensitivity=0.40,
        ),
        # Dynamic-programming path search
        _us(
            "pathfinder",
            compute=0.005,
            memory=0.004,
            serial=0.79,
            l2_hit=0.45,
            occupancy=0.32,
            working_set_mb=30.0,
            l2_sensitivity=0.30,
        ),
    ]
    return {kernel.name: kernel for kernel in kernels}
