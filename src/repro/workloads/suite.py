"""Benchmark-suite registry.

The registry collects every kernel model used in the evaluation — the nine
CUTLASS GEMM variants of Table 6, the Rodinia kernels, and the two memory
micro-benchmarks — behind a single lookup interface used by the profiler,
the simulator sweeps, and the benchmark harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import UnknownKernelError, WorkloadError
from repro.gpu.spec import A100_SPEC, GPUSpec
from repro.workloads.gemm import all_gemm_kernels
from repro.workloads.kernel import KernelCharacteristics
from repro.workloads.micro import micro_kernels
from repro.workloads.rodinia import rodinia_kernels


@dataclass
class BenchmarkSuite:
    """A named collection of kernel models.

    The suite behaves like a read-mostly mapping from benchmark name to
    :class:`~repro.workloads.kernel.KernelCharacteristics`.
    """

    name: str
    kernels: dict[str, KernelCharacteristics] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Mapping-ish interface
    # ------------------------------------------------------------------
    def __contains__(self, name: object) -> bool:
        return name in self.kernels

    def __len__(self) -> int:
        return len(self.kernels)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.kernels))

    def get(self, name: str) -> KernelCharacteristics:
        """Return the kernel model registered under ``name``.

        Raises
        ------
        repro.errors.UnknownKernelError
            If no kernel with that name exists in the suite.
        """
        try:
            return self.kernels[name]
        except KeyError:
            raise UnknownKernelError(
                f"unknown benchmark {name!r}; known: {sorted(self.kernels)}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """All benchmark names, sorted."""
        return tuple(sorted(self.kernels))

    def all(self) -> tuple[KernelCharacteristics, ...]:
        """All kernel models, sorted by name."""
        return tuple(self.kernels[name] for name in self.names())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def register(self, kernel: KernelCharacteristics, overwrite: bool = False) -> None:
        """Add a kernel model to the suite."""
        if kernel.name in self.kernels and not overwrite:
            raise WorkloadError(
                f"benchmark {kernel.name!r} already registered in suite {self.name!r}"
            )
        self.kernels[kernel.name] = kernel

    def register_all(self, kernels: Iterable[KernelCharacteristics]) -> None:
        """Add several kernel models at once."""
        for kernel in kernels:
            self.register(kernel)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def subset(self, names: Iterable[str]) -> "BenchmarkSuite":
        """A new suite restricted to ``names`` (order-insensitive)."""
        requested = list(names)
        return BenchmarkSuite(
            name=f"{self.name}-subset",
            kernels={name: self.get(name) for name in requested},
        )


def build_default_suite(spec: GPUSpec = A100_SPEC) -> BenchmarkSuite:
    """Build the full evaluation suite (Tables 6 and 7) for a GPU spec."""
    suite = BenchmarkSuite(name="icpp22-evaluation")
    suite.register_all(all_gemm_kernels(spec).values())
    suite.register_all(rodinia_kernels().values())
    suite.register_all(micro_kernels().values())
    return suite


#: The default suite, built against the default A100-like specification.
DEFAULT_SUITE = build_default_suite()
