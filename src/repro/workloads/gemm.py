"""CUTLASS-profiler-style GEMM variants (Table 6 of the paper).

The paper uses the CUTLASS profiler to obtain Tensor-Core-intensive kernels
that Rodinia lacks.  Table 6 lists nine GEMM variants differing in the input
and accumulation data types; each one maps onto a different compute pipe of
the GPU (regular FP32/FP64 CUDA cores, or the Tensor-Core modes).

Here each variant is derived from an explicit :class:`GemmShape` so that the
compute time, DRAM traffic, and working set follow from first principles
(FLOP counts, matrix sizes, data-type widths) rather than being hand-picked
numbers.  The iteration count per variant is chosen automatically so that
every variant has a comparable solo runtime (~0.9 s on the full chip), which
mirrors how the paper runs each benchmark long enough to reach steady state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.gpu.spec import A100_SPEC, GPUSpec, Pipe
from repro.workloads.kernel import KernelCharacteristics


#: DRAM traffic over the matrices' own bytes: the tiled implementation
#: reuses imperfectly (partial re-reads of A/B, write-allocate on C).
_TRAFFIC_FACTOR = 1.5


@dataclass(frozen=True)
class GemmShape:
    """Problem shape of one GEMM invocation (``C[m,n] += A[m,k] @ B[k,n]``)."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        for label, value in (("m", self.m), ("n", self.n), ("k", self.k)):
            if value <= 0:
                raise WorkloadError(f"GEMM dimension {label} must be positive, got {value}")

    @property
    def flops(self) -> float:
        """Floating-point (or integer) operations of one invocation."""
        return 2.0 * self.m * self.n * self.k

    def bytes_moved(self, input_bytes: float, output_bytes: float) -> float:
        """Approximate DRAM traffic of one invocation."""
        element_traffic = (
            (self.m * self.k + self.k * self.n) * input_bytes
            + 2.0 * self.m * self.n * output_bytes
        )
        return element_traffic * _TRAFFIC_FACTOR


@dataclass(frozen=True)
class GemmVariantSpec:
    """Static description of one Table 6 GEMM variant."""

    name: str
    description: str
    pipe: Pipe
    input_bytes: float
    output_bytes: float
    #: Fraction of the pipe's peak throughput a tuned kernel achieves.
    efficiency: float
    #: Multiplier on the pipe's peak (e.g. INT4 Tensor ops run at twice the
    #: INT8 rate on Ampere).
    peak_multiplier: float = 1.0
    shape: GemmShape = GemmShape(8192, 8192, 8192)
    l2_hit_rate: float = 0.85
    occupancy: float = 0.55
    working_set_mb: float = 24.0
    #: GEMMs rely on L2 blocking, so LLC pollution costs them a moderate
    #: amount of compute efficiency (much less than stencil/imaging kernels).
    l2_sensitivity: float = 0.25


#: Table 6 — workload specifications for the DGEMM/GEMM variants.
GEMM_VARIANTS: dict[str, GemmVariantSpec] = {
    "sgemm": GemmVariantSpec(
        name="sgemm",
        description="Normal SGEMM without using Tensor Cores",
        pipe=Pipe.FP32,
        input_bytes=4.0,
        output_bytes=4.0,
        efficiency=0.92,
        occupancy=0.62,
    ),
    "dgemm": GemmVariantSpec(
        name="dgemm",
        description="Normal DGEMM without using Tensor Cores",
        pipe=Pipe.FP64,
        input_bytes=8.0,
        output_bytes=8.0,
        efficiency=0.92,
        occupancy=0.60,
    ),
    "tdgemm": GemmVariantSpec(
        name="tdgemm",
        description="DGEMM with Tensor Cores",
        pipe=Pipe.TENSOR_DOUBLE,
        input_bytes=8.0,
        output_bytes=8.0,
        efficiency=0.86,
        occupancy=0.52,
    ),
    "tf32gemm": GemmVariantSpec(
        name="tf32gemm",
        description="GEMM using TF32 for inputs and FP32 for accumulation",
        pipe=Pipe.TENSOR_MIXED,
        input_bytes=4.0,
        output_bytes=4.0,
        efficiency=0.42,  # TF32 runs at half the FP16 Tensor rate
        occupancy=0.55,
    ),
    "hgemm": GemmVariantSpec(
        name="hgemm",
        description="HGEMM using FP16 for both inputs and accumulation",
        pipe=Pipe.TENSOR_MIXED,
        input_bytes=2.0,
        output_bytes=2.0,
        efficiency=0.85,
        occupancy=0.50,
    ),
    "fp16gemm": GemmVariantSpec(
        name="fp16gemm",
        description="GEMM using FP16 for inputs and FP32 for accumulation",
        pipe=Pipe.TENSOR_MIXED,
        input_bytes=2.0,
        output_bytes=4.0,
        efficiency=0.82,
        occupancy=0.50,
    ),
    "bf16gemm": GemmVariantSpec(
        name="bf16gemm",
        description="GEMM using BF16 for inputs and FP32 for accumulation",
        pipe=Pipe.TENSOR_MIXED,
        input_bytes=2.0,
        output_bytes=4.0,
        efficiency=0.80,
        occupancy=0.50,
    ),
    "igemm4": GemmVariantSpec(
        name="igemm4",
        description="IGEMM using u4 for both inputs and accumulation",
        pipe=Pipe.TENSOR_INT,
        input_bytes=0.5,
        output_bytes=4.0,
        efficiency=0.72,
        peak_multiplier=2.0,
        occupancy=0.48,
    ),
    "igemm8": GemmVariantSpec(
        name="igemm8",
        description="IGEMM using u8 for both inputs and accumulation",
        pipe=Pipe.TENSOR_INT,
        input_bytes=1.0,
        output_bytes=4.0,
        efficiency=0.75,
        occupancy=0.48,
    ),
}


#: Target solo runtime (full chip, boost clock) used to pick iteration counts.
_TARGET_RUNTIME_S = 0.88

#: Fraction of the compute work that spills onto the FP32 CUDA pipe even for
#: Tensor-Core kernels (epilogue, address arithmetic, data movement).
_EPILOGUE_FRACTION = 0.08

#: Fixed launch/setup overhead per benchmark plus a tiny per-iteration cost.
_BASE_SERIAL_S = 0.015
_PER_ITERATION_SERIAL_S = 4.0e-5


def gemm_iterations(variant: GemmVariantSpec, spec: GPUSpec = A100_SPEC) -> int:
    """Number of back-to-back GEMM invocations used for the benchmark."""
    peak_flops = spec.pipe_tflops[variant.pipe] * variant.peak_multiplier * 1e12
    achievable = peak_flops * variant.efficiency
    seconds_per_iteration = variant.shape.flops / achievable
    return max(1, round(_TARGET_RUNTIME_S / seconds_per_iteration))


def gemm_kernel(name: str, spec: GPUSpec = A100_SPEC) -> KernelCharacteristics:
    """Build the :class:`KernelCharacteristics` of a Table 6 GEMM variant."""
    try:
        variant = GEMM_VARIANTS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown GEMM variant {name!r}; known: {sorted(GEMM_VARIANTS)}"
        ) from None
    iterations = gemm_iterations(variant, spec)
    peak_flops = spec.pipe_tflops[variant.pipe] * variant.peak_multiplier * 1e12
    achievable = peak_flops * variant.efficiency
    compute_time = iterations * variant.shape.flops / achievable
    traffic_bytes = iterations * variant.shape.bytes_moved(
        variant.input_bytes, variant.output_bytes
    )
    memory_time = traffic_bytes / (spec.dram_bandwidth_gbs * 1e9)
    serial_time = _BASE_SERIAL_S + _PER_ITERATION_SERIAL_S * iterations

    if variant.pipe in (Pipe.FP32, Pipe.FP64):
        pipe_fractions = {variant.pipe: 1.0}
    else:
        pipe_fractions = {
            variant.pipe: 1.0 - _EPILOGUE_FRACTION,
            Pipe.FP32: _EPILOGUE_FRACTION,
        }

    return KernelCharacteristics(
        name=variant.name,
        compute_time_full_s=compute_time,
        memory_time_full_s=memory_time,
        serial_time_s=serial_time,
        pipe_fractions=pipe_fractions,
        l2_hit_rate=variant.l2_hit_rate,
        occupancy=variant.occupancy,
        working_set_mb=variant.working_set_mb,
        l2_sensitivity=variant.l2_sensitivity,
    )


def all_gemm_kernels(spec: GPUSpec = A100_SPEC) -> dict[str, KernelCharacteristics]:
    """All Table 6 GEMM variants as kernel models."""
    return {name: gemm_kernel(name, spec) for name in GEMM_VARIANTS}
