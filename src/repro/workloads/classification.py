"""Benchmark classification (Table 7 of the paper).

The paper classifies each benchmark into TI / CI / MI / US with a simple,
measurement-driven rule (Section 5.1.2):

1. If the performance degradation at 150 W with **1 GPC using the private
   option** is less than 10 % (i.e. relative performance > 0.9), the
   benchmark is **US** (un-scalable).
2. Otherwise, compute the ratio ``F1 / F2`` of the profiled compute
   throughput to memory throughput.  If it is greater than 0.80 the
   benchmark is compute dominated: **TI** if it uses the Tensor Cores,
   **CI** otherwise.
3. Otherwise it is **MI** (memory intensive).

Two entry points are provided: :func:`classify_from_measurements` is a pure
function over already-collected measurements (useful for testing the rule in
isolation) and :func:`classify_kernel` drives the simulator + profiler to
obtain those measurements, mirroring the paper's methodology end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.workloads.kernel import KernelCharacteristics, WorkloadClass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.counters import CounterVector
    from repro.sim.engine import PerformanceSimulator


#: Degradation threshold of the US rule (10 % → relative performance 0.9).
US_RELATIVE_PERFORMANCE_THRESHOLD = 0.90

#: Compute/memory throughput ratio separating compute- from memory-dominated.
COMPUTE_MEMORY_RATIO_THRESHOLD = 0.80

#: Minimum summed Tensor-pipe utilization (in percent) to call a kernel a
#: Tensor-Core user.
TENSOR_UTILIZATION_THRESHOLD_PCT = 1.0

#: Power cap and partition used by the US test in the paper's rule.
US_TEST_POWER_CAP_W = 150.0
US_TEST_GPCS = 1


#: Table 7 — the classification published in the paper, used as the expected
#: outcome in tests and reports.
EXPECTED_CLASSIFICATION: Mapping[str, WorkloadClass] = {
    # TI
    "tdgemm": WorkloadClass.TI,
    "tf32gemm": WorkloadClass.TI,
    "hgemm": WorkloadClass.TI,
    "fp16gemm": WorkloadClass.TI,
    "bf16gemm": WorkloadClass.TI,
    "igemm4": WorkloadClass.TI,
    "igemm8": WorkloadClass.TI,
    # CI
    "hotspot": WorkloadClass.CI,
    "lavaMD": WorkloadClass.CI,
    "sgemm": WorkloadClass.CI,
    "dgemm": WorkloadClass.CI,
    "srad": WorkloadClass.CI,
    "heartwell": WorkloadClass.CI,
    # MI
    "randomaccess": WorkloadClass.MI,
    "stream": WorkloadClass.MI,
    "gaussian": WorkloadClass.MI,
    "leukocyte": WorkloadClass.MI,
    "lud": WorkloadClass.MI,
    # US
    "backprop": WorkloadClass.US,
    "bfs": WorkloadClass.US,
    "dwt2d": WorkloadClass.US,
    "kmeans": WorkloadClass.US,
    "needle": WorkloadClass.US,
    "pathfinder": WorkloadClass.US,
}


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of classifying one benchmark, with the evidence used."""

    name: str
    workload_class: WorkloadClass
    relative_perf_us_test: float
    compute_memory_ratio: float
    tensor_utilization_pct: float

    @property
    def matches_paper(self) -> bool:
        """Whether the outcome matches Table 7 (if the benchmark appears there)."""
        expected = EXPECTED_CLASSIFICATION.get(self.name)
        return expected is None or expected is self.workload_class


def classify_from_measurements(
    name: str,
    relative_perf_us_test: float,
    counters: "CounterVector",
) -> ClassificationReport:
    """Apply the paper's classification rule to already-collected measurements.

    Parameters
    ----------
    name:
        Benchmark name (only recorded in the report).
    relative_perf_us_test:
        Relative performance measured at 150 W on 1 GPC with the private
        option, normalized to the exclusive full-GPU run.
    counters:
        Profiled counter vector (Table 3) from the solo full-GPU run.
    """
    tensor_pct = counters.tensor_mixed + counters.tensor_double + counters.tensor_int
    memory_pct = max(counters.memory_throughput, 1e-9)
    ratio = counters.compute_throughput / memory_pct

    if relative_perf_us_test > US_RELATIVE_PERFORMANCE_THRESHOLD:
        workload_class = WorkloadClass.US
    elif ratio > COMPUTE_MEMORY_RATIO_THRESHOLD:
        if tensor_pct > TENSOR_UTILIZATION_THRESHOLD_PCT:
            workload_class = WorkloadClass.TI
        else:
            workload_class = WorkloadClass.CI
    else:
        workload_class = WorkloadClass.MI

    return ClassificationReport(
        name=name,
        workload_class=workload_class,
        relative_perf_us_test=relative_perf_us_test,
        compute_memory_ratio=ratio,
        tensor_utilization_pct=tensor_pct,
    )


def classify_kernel(
    kernel: KernelCharacteristics,
    simulator: "PerformanceSimulator | None" = None,
) -> ClassificationReport:
    """Classify a kernel by running the paper's measurement procedure.

    A profile run (solo, full GPU, no cap) provides the counters; a solo run
    on 1 GPC with the private option at 150 W provides the degradation used
    by the US rule.
    """
    # Imported lazily to keep the workloads package importable without the
    # simulator (and to avoid a circular import at module load time).
    from repro.gpu.mig import MemoryOption, solo_state
    from repro.sim.engine import PerformanceSimulator

    sim = simulator if simulator is not None else PerformanceSimulator()
    counters = sim.profile(kernel)
    us_run = sim.solo_run(
        kernel,
        solo_state(US_TEST_GPCS, MemoryOption.PRIVATE),
        power_cap_w=US_TEST_POWER_CAP_W,
    )
    return classify_from_measurements(kernel.name, us_run.relative_performance, counters)
