"""Decision records returned by the Resource & Power Allocator."""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import overload

import numpy as np

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


@dataclass(frozen=True, eq=False, repr=False)
class CandidateColumns(Sequence[CandidateEvaluation]):
    """A table solve's candidate records, held as the solve's columns.

    ``rows`` are the grid's ``(state, cap)`` pairs in search order; the
    read-only arrays hold every row's predictions (one column per
    application), throughput, fairness, objective and feasibility.  Reading
    a row builds its :class:`CandidateEvaluation` from them, and nothing
    read is kept, so a decision nobody renders never builds its records.
    Otherwise it is the tuple of those records: equal to it in both operand
    orders, with its hash, length and ``repr``, and a slice is a tuple.
    """

    rows: tuple[tuple[PartitionState, float], ...]
    predictions: np.ndarray
    throughputs: np.ndarray
    fairnesses: np.ndarray
    objectives: np.ndarray
    feasible: np.ndarray

    def __post_init__(self) -> None:
        for column in (
            self.predictions,
            self.throughputs,
            self.fairnesses,
            self.objectives,
            self.feasible,
        ):
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.rows)

    @overload
    def __getitem__(self, index: int) -> CandidateEvaluation: ...

    @overload
    def __getitem__(self, index: slice) -> tuple[CandidateEvaluation, ...]: ...

    def __getitem__(
        self, index: int | slice
    ) -> CandidateEvaluation | tuple[CandidateEvaluation, ...]:
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self.rows))[index]))
        state, cap = self.rows[index]
        row = operator.index(index)
        return CandidateEvaluation(
            state,
            cap,
            tuple(self.predictions[row].tolist()),
            self.throughputs.item(row),
            self.fairnesses.item(row),
            self.objectives.item(row),
            self.feasible.item(row),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, CandidateColumns)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


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
        Every candidate the search examined, in search order (useful for
        reports and for comparing against the measured best/worst): a
        tuple of records from a candidate-by-candidate search, the solve's
        :class:`CandidateColumns` from a table solve.  Either compares and
        hashes as the tuple of records.
    """

    state: PartitionState
    power_cap_w: float
    predicted_rperfs: tuple[float, ...]
    predicted_throughput: float
    predicted_fairness: float
    predicted_objective: float
    policy_name: str
    candidates_evaluated: int
    evaluations: Sequence[CandidateEvaluation] = ()

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"[{self.policy_name}] choose {self.state.describe()} @ "
            f"{self.power_cap_w:.0f}W (objective={self.predicted_objective:.4f}, "
            f"throughput={self.predicted_throughput:.3f}, "
            f"fairness={self.predicted_fairness:.3f})"
        )
