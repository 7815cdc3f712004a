"""Profile collection (the Nsight-Compute stand-in).

The collector runs an application exclusively on the full GPU (no MIG, no
power cap), records its counter vector, and produces a
:class:`~repro.profiling.records.ProfileRecord`.  In the paper this is the
mandatory first run of every application; the same requirement is enforced
here by the online allocator, which refuses to co-schedule applications
without a stored profile.
"""

from __future__ import annotations

from typing import Iterable

from repro.profiling.database import ProfileDatabase
from repro.profiling.records import ProfileRecord
from repro.sim.engine import PerformanceSimulator
from repro.workloads.kernel import KernelCharacteristics


class ProfileCollector:
    """Collect profile records by running applications through the simulator."""

    def __init__(self, simulator: PerformanceSimulator | None = None) -> None:
        self._simulator = simulator if simulator is not None else PerformanceSimulator()

    @property
    def simulator(self) -> PerformanceSimulator:
        """The simulator used for profile runs."""
        return self._simulator

    # ------------------------------------------------------------------
    def collect(self, kernel: KernelCharacteristics) -> ProfileRecord:
        """Run one profile run and return its record."""
        return ProfileRecord(name=kernel.name, counters=self._simulator.profile(kernel))

    def collect_into(
        self, kernels: Iterable[KernelCharacteristics], database: ProfileDatabase
    ) -> ProfileDatabase:
        """Profile the applications ``database`` has no profile for yet."""
        for kernel in kernels:
            if not database.has(kernel.name):
                database.add(self.collect(kernel))
        return database
