"""Regeneration of the paper's workload tables (Tables 6, 7 and 8)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.analysis.context import EvaluationContext
from repro.workloads.classification import (
    EXPECTED_CLASSIFICATION,
    ClassificationReport,
    classify_kernel,
)
from repro.workloads.gemm import GEMM_VARIANTS, gemm_iterations, gemm_kernel
from repro.workloads.kernel import WorkloadClass
from repro.workloads.pairs import CORUN_PAIRS, CoRunPair


@dataclass(frozen=True)
class Table6Row:
    """One GEMM variant of Table 6, with the derived kernel-model numbers."""

    name: str
    specification: str
    pipe: str
    iterations: int
    compute_time_full_s: float
    memory_time_full_s: float


def table6_gemm_variants() -> tuple[Table6Row, ...]:
    """Table 6: the nine GEMM variants and their derived kernel models."""
    rows: list[Table6Row] = []
    for name, variant in GEMM_VARIANTS.items():
        kernel = gemm_kernel(name)
        rows.append(
            Table6Row(
                name=name,
                specification=variant.description,
                pipe=variant.pipe.value,
                iterations=gemm_iterations(variant),
                compute_time_full_s=kernel.compute_time_full_s,
                memory_time_full_s=kernel.memory_time_full_s,
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class Table7Data:
    """Table 7: measured benchmark classification vs the paper's."""

    reports: Mapping[str, ClassificationReport]

    @property
    def by_class(self) -> Mapping[WorkloadClass, tuple[str, ...]]:
        """Benchmarks grouped by the measured class."""
        grouped: dict[WorkloadClass, list[str]] = {cls: [] for cls in WorkloadClass}
        for name in sorted(self.reports):
            grouped[self.reports[name].workload_class].append(name)
        return {cls: tuple(names) for cls, names in grouped.items()}

    @property
    def accuracy(self) -> float:
        """Fraction of benchmarks classified identically to the paper."""
        relevant = [name for name in self.reports if name in EXPECTED_CLASSIFICATION]
        if not relevant:
            return 1.0
        matches = sum(
            1
            for name in relevant
            if self.reports[name].workload_class is EXPECTED_CLASSIFICATION[name]
        )
        return matches / len(relevant)


def table7_classification(context: EvaluationContext) -> Table7Data:
    """Table 7: run the paper's classification rule over the whole suite."""
    reports = {
        name: classify_kernel(context.suite.get(name), context.simulator)
        for name in context.suite.names()
    }
    return Table7Data(reports=reports)


@dataclass(frozen=True)
class Table8Data:
    """Table 8: the co-run workload definitions."""

    pairs: tuple[CoRunPair, ...]

    @property
    def names(self) -> tuple[str, ...]:
        """All workload names in order."""
        return tuple(pair.name for pair in self.pairs)


def table8_corun_pairs() -> Table8Data:
    """Table 8: the eighteen co-run workloads used by the evaluation."""
    return Table8Data(pairs=CORUN_PAIRS)
