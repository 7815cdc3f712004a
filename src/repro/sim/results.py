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
    elapsed_s:
        Measured elapsed time including measurement noise.
    relative_performance:
        The exclusive full-GPU run's elapsed time (the normalization
        baseline used throughout the paper) over ``elapsed_s``: the paper's
        ``RPerf``.
    chip_power_w:
        Modelled chip power during the run (all co-located applications and
        idle components included).
    bound:
        Which component limits the run: ``"compute"``, ``"memory"`` or
        ``"serial"``.
    """

    kernel_name: str
    elapsed_s: float
    relative_performance: float
    chip_power_w: float
    bound: str


@dataclass(frozen=True)
class CoRunResult:
    """Outcome of co-executing several applications under one partition state.

    ``relative_frequency`` is the clock the power-cap governor selected, as
    a fraction of boost.
    """

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
