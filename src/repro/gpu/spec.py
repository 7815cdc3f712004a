"""Static hardware specification of the simulated GPU.

The :class:`GPUSpec` dataclass gathers every hardware parameter the rest of
the library needs: the partitionable compute resources (GPCs and the SMs
inside them), the memory system (LLC/HBM "slices" that MIG assigns to GPU
Instances), the per-pipe peak throughputs (CUDA FP32/FP64 cores and the
three Tensor-Core modes the paper's counters distinguish), and the
parameters of the analytic power model.

The default :data:`A100_SPEC` is modelled after the NVIDIA A100 40 GB PCIe
card used in the paper (Table 2).  The absolute numbers follow the public
data sheet where available; power-model constants are calibrated so that the
qualitative behaviour reported by the paper holds (compute- and Tensor-
intensive kernels are throttled by chip power caps, memory-bound and
unscalable kernels are not — Figures 4 and 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from repro.errors import PowerCapError, SpecificationError
from repro.gpu.scheme import (
    CoupledSliceScheme,
    IndependentAxesScheme,
    PartitionScheme,
)


class Pipe(str, Enum):
    """Computational pipes distinguished by the simulator and the profiler.

    The paper's feature vector (Table 3) separates generic compute
    throughput from three Tensor-Core utilization counters (MIXED, DOUBLE,
    INTEGER); the pipes below mirror that split.
    """

    #: FP32 CUDA cores (also used for generic integer/ALU work).
    FP32 = "fp32"
    #: FP64 CUDA cores.
    FP64 = "fp64"
    #: Tensor Cores operating on FP16/BF16/TF32 inputs ("Tensor MIXED").
    TENSOR_MIXED = "tensor_mixed"
    #: Tensor Cores operating on FP64 inputs ("Tensor DOUBLE").
    TENSOR_DOUBLE = "tensor_double"
    #: Tensor Cores operating on INT8/INT4 inputs ("Tensor INTEGER").
    TENSOR_INT = "tensor_int"


#: Pipes that map onto Tensor Cores.
TENSOR_PIPES: tuple[Pipe, ...] = (
    Pipe.TENSOR_MIXED,
    Pipe.TENSOR_DOUBLE,
    Pipe.TENSOR_INT,
)

#: Pipes that map onto the regular CUDA cores.
CUDA_PIPES: tuple[Pipe, ...] = (Pipe.FP32, Pipe.FP64)


@dataclass(frozen=True)
class GPUSpec:
    """Complete hardware description of a simulated, MIG-capable GPU.

    Compute/partitioning parameters
    -------------------------------
    n_gpcs:
        Number of GPCs physically present on the die (8 for A100).
    mig_gpcs:
        Number of GPCs usable when MIG is enabled (7 for A100 — one GPC is
        disabled by the hardware when MIG mode is switched on).
    pipe_tflops:
        Peak full-chip throughput per :class:`Pipe` in TFLOP/s at the
        maximum clock.

    Memory-system parameters
    ------------------------
    dram_bandwidth_gbs:
        Peak HBM bandwidth of the full chip in GB/s.
    n_mem_slices:
        Number of LLC/HBM slices that MIG distributes across GPU Instances
        (8 for A100).
    l2_cache_mb:
        Total last-level-cache capacity in MiB.

    Clock / power parameters
    ------------------------
    max_clock_ghz, min_clock_ghz:
        Boost and minimum sustainable clocks.  The simulator expresses
        the operating point as a *relative frequency* ``f`` in
        ``[min_clock_ghz / max_clock_ghz, 1.0]`` where ``1.0`` is the boost
        clock.
    clock_step_ghz:
        Clock quantization step used by the DVFS governor.
    default_power_limit_w:
        Factory power limit — the "no power capping" operating point the
        paper normalizes against (250 W for the A100 PCIe).
    min_power_cap_w, max_power_cap_w:
        Range accepted by the power-capping interface.
    static_power_w:
        Frequency-independent chip power (leakage, NVLink/PCIe PHYs, ...).
    gpc_idle_power_w:
        Power of one powered-on but idle GPC.
    gpc_cuda_power_w:
        Additional dynamic power of one GPC at full CUDA-core utilization
        and maximum clock.
    gpc_tensor_power_w:
        Additional dynamic power of one GPC at full Tensor-Core utilization
        and maximum clock (Tensor work is the most power-hungry activity on
        the chip, which is why the paper finds Tensor-intensive kernels the
        most sensitive to power caps).
    hbm_idle_power_w:
        Static power of the HBM stacks and memory controllers.
    hbm_dynamic_power_w:
        Additional HBM power at 100 % of peak bandwidth.
    dvfs_exponent:
        Exponent of the dynamic-power-vs-frequency curve (``P_dyn ∝ f**e``,
        with ``e ≈ 2.4`` approximating the combined V/f scaling).

    MIG profile parameters
    ----------------------
    mig_instance_sizes:
        GPC counts for which a GPU/Compute Instance profile exists.  On the
        A100 these are 1, 2, 3, 4 and 7 (no 5- or 6-GPC instances).
    mig_mem_slices:
        Memory slices granted to a GPU Instance of each size under the
        private option (the paper, Section 3).  Keys must cover exactly
        ``mig_instance_sizes``.
    scheme:
        The :class:`~repro.gpu.scheme.PartitionScheme` mapping partition
        states to compute units and memory domains on this part.  NVIDIA
        specs use the coupled MIG profile table
        (:class:`~repro.gpu.scheme.CoupledSliceScheme`); AMD-style specs
        cross independent compute and NPS memory modes
        (:class:`~repro.gpu.scheme.IndependentAxesScheme`).
    """

    name: str = "Simulated-A100-40GB"
    n_gpcs: int = 8
    mig_gpcs: int = 7
    pipe_tflops: Mapping[Pipe, float] = field(
        default_factory=lambda: {
            Pipe.FP32: 19.5,
            Pipe.FP64: 9.7,
            Pipe.TENSOR_MIXED: 312.0,
            Pipe.TENSOR_DOUBLE: 19.5,
            Pipe.TENSOR_INT: 624.0,
        }
    )
    dram_bandwidth_gbs: float = 1555.0
    n_mem_slices: int = 8
    l2_cache_mb: float = 40.0
    max_clock_ghz: float = 1.410
    min_clock_ghz: float = 0.420
    clock_step_ghz: float = 0.015
    default_power_limit_w: float = 250.0
    min_power_cap_w: float = 100.0
    max_power_cap_w: float = 300.0
    static_power_w: float = 25.0
    gpc_idle_power_w: float = 2.5
    gpc_cuda_power_w: float = 16.0
    gpc_tensor_power_w: float = 24.0
    hbm_idle_power_w: float = 20.0
    hbm_dynamic_power_w: float = 55.0
    dvfs_exponent: float = 2.4
    mig_instance_sizes: tuple[int, ...] = (1, 2, 3, 4, 7)
    mig_mem_slices: Mapping[int, int] = field(
        default_factory=lambda: {1: 1, 2: 2, 3: 4, 4: 4, 7: 8}
    )
    scheme: PartitionScheme = field(default_factory=CoupledSliceScheme)

    def __post_init__(self) -> None:
        if self.n_gpcs <= 0:
            raise SpecificationError("n_gpcs must be positive")
        if not (0 < self.mig_gpcs <= self.n_gpcs):
            raise SpecificationError(
                f"mig_gpcs must be in (0, n_gpcs={self.n_gpcs}], got {self.mig_gpcs}"
            )
        if self.n_mem_slices <= 0:
            raise SpecificationError("n_mem_slices must be positive")
        if self.dram_bandwidth_gbs <= 0:
            raise SpecificationError("dram_bandwidth_gbs must be positive")
        if not (0 < self.min_clock_ghz <= self.max_clock_ghz):
            raise SpecificationError(
                "clocks must satisfy 0 < min <= max, got "
                f"{self.min_clock_ghz}/{self.max_clock_ghz}"
            )
        if self.clock_step_ghz <= 0:
            raise SpecificationError("clock_step_ghz must be positive")
        if not (
            0
            < self.min_power_cap_w
            <= self.default_power_limit_w
            <= self.max_power_cap_w
        ):
            raise SpecificationError(
                "power caps must satisfy 0 < min <= default <= max, got "
                f"{self.min_power_cap_w}/{self.default_power_limit_w}/{self.max_power_cap_w}"
            )
        for value, label in (
            (self.static_power_w, "static_power_w"),
            (self.gpc_idle_power_w, "gpc_idle_power_w"),
            (self.gpc_cuda_power_w, "gpc_cuda_power_w"),
            (self.gpc_tensor_power_w, "gpc_tensor_power_w"),
            (self.hbm_idle_power_w, "hbm_idle_power_w"),
            (self.hbm_dynamic_power_w, "hbm_dynamic_power_w"),
        ):
            if value < 0:
                raise SpecificationError(f"{label} must be non-negative, got {value}")
        if self.dvfs_exponent < 1.0:
            raise SpecificationError("dvfs_exponent must be >= 1")
        missing = [p for p in Pipe if p not in self.pipe_tflops]
        if missing:
            raise SpecificationError(
                f"pipe_tflops is missing entries for: {[p.value for p in missing]}"
            )
        for pipe, value in self.pipe_tflops.items():
            if value <= 0:
                raise SpecificationError(
                    f"pipe_tflops[{pipe.value}] must be positive, got {value}"
                )
        if not self.mig_instance_sizes:
            raise SpecificationError("mig_instance_sizes must not be empty")
        if tuple(sorted(set(self.mig_instance_sizes))) != tuple(self.mig_instance_sizes):
            raise SpecificationError(
                f"mig_instance_sizes must be strictly increasing, got {self.mig_instance_sizes}"
            )
        for size in self.mig_instance_sizes:
            if size <= 0:
                raise SpecificationError(f"instance size {size} must be positive")
        missing_sizes = [s for s in self.mig_instance_sizes if s not in self.mig_mem_slices]
        if missing_sizes:
            raise SpecificationError(
                f"mig_mem_slices is missing entries for instance sizes: {missing_sizes}"
            )
        for size, slices in self.mig_mem_slices.items():
            if not (0 < slices <= self.n_mem_slices):
                raise SpecificationError(
                    f"mig_mem_slices[{size}] must be in (0, {self.n_mem_slices}], got {slices}"
                )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def min_relative_frequency(self) -> float:
        """Lowest relative frequency the DVFS governor may select."""
        return self.min_clock_ghz / self.max_clock_ghz

    def validate_power_cap(self, power_cap_w: float) -> float:
        """Validate a power-cap request and return it unchanged.

        Raises
        ------
        repro.errors.PowerCapError
            If the requested cap lies outside the supported range.
        """
        if not (self.min_power_cap_w <= power_cap_w <= self.max_power_cap_w):
            raise PowerCapError(
                f"power cap {power_cap_w} W outside supported range "
                f"[{self.min_power_cap_w}, {self.max_power_cap_w}] W"
            )
        return float(power_cap_w)

    def instance_mem_slices(self, gpcs: int) -> int:
        """Memory slices a private GPU Instance of ``gpcs`` GPCs receives."""
        try:
            return self.mig_mem_slices[gpcs]
        except KeyError:
            raise SpecificationError(
                f"{gpcs} GPCs is not a valid instance size on {self.name}; "
                f"valid sizes are {self.mig_instance_sizes}"
            ) from None

    def smallest_instance_holding(self, gpcs: int) -> int:
        """The smallest MIG instance size that can host ``gpcs`` GPCs."""
        for size in self.mig_instance_sizes:
            if size >= gpcs:
                return size
        raise SpecificationError(
            f"no instance profile on {self.name} can hold {gpcs} GPCs "
            f"(largest is {self.mig_instance_sizes[-1]})"
        )


#: Default specification modelled after the paper's NVIDIA A100 40 GB PCIe.
A100_SPEC = GPUSpec()

#: An H100-SXM-style part: same 7-GPC MIG layout as the A100 but with much
#: higher pipe throughputs, HBM3 bandwidth, and a far larger power envelope.
H100_SPEC = GPUSpec(
    name="Simulated-H100-80GB",
    n_gpcs=8,
    mig_gpcs=7,
    pipe_tflops={
        Pipe.FP32: 67.0,
        Pipe.FP64: 34.0,
        Pipe.TENSOR_MIXED: 989.0,
        Pipe.TENSOR_DOUBLE: 67.0,
        Pipe.TENSOR_INT: 1979.0,
    },
    dram_bandwidth_gbs=3350.0,
    n_mem_slices=8,
    l2_cache_mb=50.0,
    max_clock_ghz=1.980,
    min_clock_ghz=0.450,
    clock_step_ghz=0.015,
    default_power_limit_w=700.0,
    min_power_cap_w=200.0,
    max_power_cap_w=700.0,
    static_power_w=60.0,
    gpc_idle_power_w=5.0,
    gpc_cuda_power_w=42.0,
    gpc_tensor_power_w=62.0,
    hbm_idle_power_w=45.0,
    hbm_dynamic_power_w=130.0,
)

#: An A30-style part: 4 GPCs, 4 memory slices, and a coarser MIG profile
#: table (no 3-GPC instance exists on the A30).
A30_SPEC = GPUSpec(
    name="Simulated-A30-24GB",
    n_gpcs=4,
    mig_gpcs=4,
    pipe_tflops={
        Pipe.FP32: 10.3,
        Pipe.FP64: 5.2,
        Pipe.TENSOR_MIXED: 165.0,
        Pipe.TENSOR_DOUBLE: 10.3,
        Pipe.TENSOR_INT: 330.0,
    },
    dram_bandwidth_gbs=933.0,
    n_mem_slices=4,
    l2_cache_mb=24.0,
    max_clock_ghz=1.440,
    min_clock_ghz=0.420,
    clock_step_ghz=0.015,
    default_power_limit_w=165.0,
    min_power_cap_w=100.0,
    max_power_cap_w=165.0,
    static_power_w=18.0,
    gpc_idle_power_w=2.5,
    gpc_cuda_power_w=14.0,
    gpc_tensor_power_w=20.0,
    hbm_idle_power_w=12.0,
    hbm_dynamic_power_w=30.0,
    mig_instance_sizes=(1, 2, 4),
    mig_mem_slices={1: 1, 2: 2, 4: 4},
)

#: An MI300X-style part: 8 XCDs ("GPCs" in this library's vocabulary) and
#: 8 HBM stacks partitioned *independently* — compute modes SPX/DPX/QPX/CPX
#: (1×8, 2×4, 4×2, 8×1 XCDs) crossed with NPS1/2/4/8 memory modes — so the
#: spec carries the :class:`~repro.gpu.scheme.IndependentAxesScheme` instead
#: of the MIG profile table.  ``mig_mem_slices`` keeps the per-size stack
#: counts a lone NPS-per-partition placement sees (size g → g stacks) for
#: profile-table fallbacks; the scheme, not the table, is authoritative.
MI300X_SPEC = GPUSpec(
    name="Simulated-MI300X-192GB",
    n_gpcs=8,
    mig_gpcs=8,
    pipe_tflops={
        Pipe.FP32: 163.4,
        Pipe.FP64: 81.7,
        Pipe.TENSOR_MIXED: 1307.4,
        Pipe.TENSOR_DOUBLE: 163.4,
        Pipe.TENSOR_INT: 2614.9,
    },
    dram_bandwidth_gbs=5300.0,
    n_mem_slices=8,
    l2_cache_mb=256.0,
    max_clock_ghz=2.100,
    min_clock_ghz=0.500,
    clock_step_ghz=0.015,
    default_power_limit_w=750.0,
    min_power_cap_w=300.0,
    max_power_cap_w=750.0,
    static_power_w=60.0,
    gpc_idle_power_w=5.0,
    gpc_cuda_power_w=48.0,
    gpc_tensor_power_w=70.0,
    hbm_idle_power_w=50.0,
    hbm_dynamic_power_w=140.0,
    dvfs_exponent=2.4,
    mig_instance_sizes=(1, 2, 4, 8),
    mig_mem_slices={1: 1, 2: 2, 4: 4, 8: 8},
    scheme=IndependentAxesScheme(),
)

#: Registry of the built-in hardware specifications, by short name.
GPU_SPECS: Mapping[str, GPUSpec] = {
    "a100": A100_SPEC,
    "h100": H100_SPEC,
    "a30": A30_SPEC,
    "mi300x": MI300X_SPEC,
}


def builtin_spec_named(full_name: str) -> GPUSpec | None:
    """The built-in :class:`GPUSpec` whose ``name`` field is ``full_name``.

    Returns ``None`` when no built-in spec matches (e.g. a custom spec);
    used by model deserialization to resolve the spec a document recorded.
    """
    for spec in GPU_SPECS.values():
        if spec.name == full_name:
            return spec
    return None


def spec_by_name(name: str) -> GPUSpec:
    """Look up a built-in :class:`GPUSpec` by short name (case-insensitive).

    Raises
    ------
    repro.errors.SpecificationError
        If no specification with that name exists, listing the valid names.
    """
    key = name.strip().lower()
    try:
        return GPU_SPECS[key]
    except KeyError:
        raise SpecificationError(
            f"unknown GPU spec {name!r}; valid names are {sorted(GPU_SPECS)}"
        ) from None
