"""Co-run workload pairs (Table 8 of the paper).

The paper builds 18 two-application workloads by pairing the benchmark
classes (TI-TI, TI-MI, CI-US, ...) and drawing one benchmark per class.
This module encodes exactly those pairs, preserving the paper's naming
(``TI-MI2`` etc.) and application order (App1 is listed first and is the one
that receives 4 GPCs under S1/S3).
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.errors import WorkloadError
from repro.workloads.kernel import KernelCharacteristics, WorkloadClass
from repro.workloads.suite import BenchmarkSuite, DEFAULT_SUITE


@dataclass(frozen=True)
class CoRunPair:
    """One co-scheduled workload: a named pair of applications.

    Attributes
    ----------
    name:
        The paper's workload name, e.g. ``"TI-MI2"``.
    app1, app2:
        Benchmark names of the first and second application.
    class1, class2:
        Benchmark classes the pair was drawn from.
    """

    name: str
    app1: str
    app2: str
    class1: WorkloadClass
    class2: WorkloadClass

    @property
    def app_names(self) -> tuple[str, str]:
        """Both application names in order."""
        return (self.app1, self.app2)

    def kernels(self, suite: BenchmarkSuite | None = None) -> tuple[KernelCharacteristics, KernelCharacteristics]:
        """Resolve both applications to kernel models."""
        resolved = suite or DEFAULT_SUITE
        return (resolved.get(self.app1), resolved.get(self.app2))

    def describe(self) -> str:
        """Human-readable description, e.g. ``"TI-MI2 = (igemm4, stream)"``."""
        return f"{self.name} = ({self.app1}, {self.app2})"


def _pair(name: str, app1: str, app2: str) -> CoRunPair:
    class1_label, class2_label = name.rstrip("0123456789").split("-")
    return CoRunPair(
        name=name,
        app1=app1,
        app2=app2,
        class1=WorkloadClass(class1_label),
        class2=WorkloadClass(class2_label),
    )


#: Table 8 — co-run workload definitions, in the paper's order.
CORUN_PAIRS: tuple[CoRunPair, ...] = (
    _pair("TI-TI1", "tdgemm", "tf32gemm"),
    _pair("TI-TI2", "fp16gemm", "bf16gemm"),
    _pair("CI-CI1", "sgemm", "lavaMD"),
    _pair("CI-CI2", "dgemm", "hotspot"),
    _pair("MI-MI1", "randomaccess", "gaussian"),
    _pair("MI-MI2", "stream", "leukocyte"),
    _pair("US-US1", "bfs", "dwt2d"),
    _pair("US-US2", "kmeans", "needle"),
    _pair("TI-MI1", "hgemm", "lud"),
    _pair("TI-MI2", "igemm4", "stream"),
    _pair("CI-MI1", "heartwell", "gaussian"),
    _pair("CI-MI2", "sgemm", "randomaccess"),
    _pair("TI-US1", "igemm8", "backprop"),
    _pair("TI-US2", "fp16gemm", "pathfinder"),
    _pair("CI-US1", "srad", "needle"),
    _pair("CI-US2", "dgemm", "dwt2d"),
    _pair("MI-US1", "leukocyte", "kmeans"),
    _pair("MI-US2", "lud", "needle"),
)


def corun_pair_names() -> tuple[str, ...]:
    """All Table 8 workload names, in the paper's order."""
    return tuple(pair.name for pair in CORUN_PAIRS)


def corun_pair(name: str) -> CoRunPair:
    """Look up a Table 8 workload by name."""
    for pair in CORUN_PAIRS:
        if pair.name == name:
            return pair
    raise WorkloadError(f"unknown co-run workload {name!r}; known: {corun_pair_names()}")
