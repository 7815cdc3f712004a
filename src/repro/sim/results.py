"""Result records produced by the execution simulator."""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.mig import PartitionState


@dataclass(frozen=True)
class RunResult:
    """Outcome of executing one application on one allocation.

    Attributes
    ----------
    kernel_name:
        Name of the executed benchmark.
    state:
        The partition state the run was part of (a solo state for solo runs).
    app_index:
        Index of the application within the state (0 for solo runs).
    power_cap_w:
        Chip power cap active during the run.
    elapsed_s:
        Measured elapsed time including measurement noise.
    noiseless_elapsed_s:
        Elapsed time before measurement noise was applied (used by tests and
        by error analyses that want to separate model error from noise).
    reference_s:
        Elapsed time of the exclusive solo run on the full GPU at the default
        power limit — the normalization baseline used throughout the paper.
    relative_performance:
        ``reference_s / elapsed_s`` (the paper's ``RPerf``).
    relative_frequency:
        Clock selected by the power-cap governor, as a fraction of boost.
    compute_time_s, memory_time_s, serial_time_s:
        Effective time components after allocation scaling, clock throttling
        and interference.
    achieved_bandwidth_gbs:
        Average DRAM bandwidth achieved by the application.
    chip_power_w:
        Modelled chip power during the run (all co-located applications and
        idle components included).
    bound:
        Which component limits the run: ``"compute"``, ``"memory"`` or
        ``"serial"``.
    """

    kernel_name: str
    state: PartitionState
    app_index: int
    power_cap_w: float
    elapsed_s: float
    noiseless_elapsed_s: float
    reference_s: float
    relative_performance: float
    relative_frequency: float
    compute_time_s: float
    memory_time_s: float
    serial_time_s: float
    achieved_bandwidth_gbs: float
    chip_power_w: float
    bound: str

    @property
    def slowdown(self) -> float:
        """Slowdown relative to the exclusive full-GPU run (``1 / RPerf``)."""
        return self.elapsed_s / self.reference_s

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.kernel_name} on {self.state.describe()} @ {self.power_cap_w:.0f}W: "
            f"RPerf={self.relative_performance:.3f} "
            f"(f={self.relative_frequency:.2f}, bound={self.bound})"
        )


@dataclass(frozen=True)
class CoRunResult:
    """Outcome of co-executing several applications under one partition state."""

    state: PartitionState
    power_cap_w: float
    per_app: tuple[RunResult, ...]
    chip_power_w: float
    relative_frequency: float

    @property
    def n_apps(self) -> int:
        """Number of co-located applications."""
        return len(self.per_app)

    @property
    def relative_performances(self) -> tuple[float, ...]:
        """Per-application relative performance, in application order."""
        return tuple(result.relative_performance for result in self.per_app)

    @property
    def weighted_speedup(self) -> float:
        """The paper's throughput metric: the sum of relative performances."""
        return float(sum(self.relative_performances))

    @property
    def fairness(self) -> float:
        """The paper's fairness metric: the minimum relative performance."""
        return float(min(self.relative_performances))

    @property
    def energy_efficiency(self) -> float:
        """The paper's Problem 2 objective: weighted speedup per watt of cap."""
        return self.weighted_speedup / self.power_cap_w

    def summary(self) -> str:
        """One-line human-readable summary."""
        apps = ", ".join(
            f"{r.kernel_name}={r.relative_performance:.3f}" for r in self.per_app
        )
        return (
            f"{self.state.describe()} @ {self.power_cap_w:.0f}W: "
            f"WS={self.weighted_speedup:.3f} fairness={self.fairness:.3f} ({apps})"
        )
