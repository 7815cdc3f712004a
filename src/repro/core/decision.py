"""Decision records returned by the Resource & Power Allocator."""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.mig import PartitionState


@dataclass(frozen=True)
class CandidateEvaluation:
    """Model-predicted metrics of one candidate ``(S, P)`` combination."""

    state: PartitionState
    power_cap_w: float
    predicted_rperfs: tuple[float, ...]
    predicted_throughput: float
    predicted_fairness: float
    objective: float
    feasible: bool


@dataclass(frozen=True)
class AllocationDecision:
    """The allocator's answer for one co-location group and one policy.

    Attributes
    ----------
    state:
        The selected partition/allocation state ``S``.
    power_cap_w:
        The selected (Problem 2) or given (Problem 1) chip power cap ``P``.
    predicted_rperfs:
        Model-predicted relative performance of each application.
    predicted_throughput, predicted_fairness, predicted_objective:
        Model-predicted metrics of the selected combination.
    policy_name:
        Which optimization problem produced the decision.
    candidates_evaluated:
        How many ``(S, P)`` combinations the search examined.
    evaluations:
        The full list of candidate evaluations (useful for reports and for
        comparing against the measured best/worst).
    """

    state: PartitionState
    power_cap_w: float
    predicted_rperfs: tuple[float, ...]
    predicted_throughput: float
    predicted_fairness: float
    predicted_objective: float
    policy_name: str
    candidates_evaluated: int
    evaluations: tuple[CandidateEvaluation, ...] = ()

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"[{self.policy_name}] choose {self.state.describe()} @ "
            f"{self.power_cap_w:.0f}W (objective={self.predicted_objective:.4f}, "
            f"throughput={self.predicted_throughput:.3f}, "
            f"fairness={self.predicted_fairness:.3f})"
        )
