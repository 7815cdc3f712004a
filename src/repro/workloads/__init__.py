"""Workload models for the simulated evaluation.

The paper evaluates Rodinia kernels, CUTLASS GEMM variants (Table 6),
``stream`` and ``randomaccess``, classified into four categories (Table 7):

* **TI** — Tensor-Core intensive,
* **CI** — (non-Tensor) compute intensive,
* **MI** — memory intensive,
* **US** — un-scalable.

In this reproduction every benchmark is an *analytic kernel model*
(:class:`~repro.workloads.kernel.KernelCharacteristics`) whose parameters
are chosen so that each kernel behaves like its class: scalability with
GPCs, sensitivity to memory slices vs. shared bandwidth, sensitivity to
power caps, L2 reuse, and Tensor-pipe usage.
"""

from repro.workloads.kernel import KernelCharacteristics, WorkloadClass
from repro.workloads.gemm import GEMM_VARIANTS, GemmShape, gemm_kernel
from repro.workloads.micro import micro_kernels
from repro.workloads.rodinia import rodinia_kernels
from repro.workloads.suite import BenchmarkSuite, DEFAULT_SUITE
from repro.workloads.classification import (
    EXPECTED_CLASSIFICATION,
    ClassificationReport,
    classify_from_measurements,
    classify_kernel,
)
from repro.workloads.pairs import CORUN_PAIRS, CoRunPair, corun_pair, corun_pair_names
from repro.workloads.groups import (
    CORUN_GROUPS,
    CORUN_QUADS,
    CORUN_TRIPLES,
    CoRunGroup,
    corun_group,
    corun_group_names,
    groups_of_size,
)
from repro.workloads.mixes import (
    JOB_MIXES,
    JobMix,
    MEMORY_HEAVY_MIX,
    STEADY_MIX,
    TENSOR_HEAVY_MIX,
    mix_by_name,
)
from repro.workloads.synthetic import SyntheticWorkloadGenerator

__all__ = [
    "KernelCharacteristics",
    "WorkloadClass",
    "GEMM_VARIANTS",
    "GemmShape",
    "gemm_kernel",
    "micro_kernels",
    "rodinia_kernels",
    "BenchmarkSuite",
    "DEFAULT_SUITE",
    "classify_kernel",
    "classify_from_measurements",
    "ClassificationReport",
    "EXPECTED_CLASSIFICATION",
    "CORUN_PAIRS",
    "CoRunPair",
    "corun_pair",
    "corun_pair_names",
    "CORUN_GROUPS",
    "CORUN_TRIPLES",
    "CORUN_QUADS",
    "CoRunGroup",
    "corun_group",
    "corun_group_names",
    "groups_of_size",
    "SyntheticWorkloadGenerator",
    "JobMix",
    "JOB_MIXES",
    "STEADY_MIX",
    "TENSOR_HEAVY_MIX",
    "MEMORY_HEAVY_MIX",
    "mix_by_name",
]
