"""Search strategies over the candidate ``(S, P)`` space.

The paper's evaluation space is tiny (4 states × 6 power caps = 24
candidates), so exhaustive search is used there.  Section 6 points out that
a larger space (finer partitioning, finer power steps, more than two
applications) would call for a heuristic such as hill climbing; both are
implemented here behind the same interface so the allocator — and the
ablation benchmark comparing them — can switch freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.config import check_count
from repro.core.decision import CandidateEvaluation
from repro.errors import OptimizationError
from repro.gpu.mig import PartitionState


@dataclass(frozen=True)
class SearchCandidate:
    """One point of the search space: a partition state and a power cap."""

    state: PartitionState
    power_cap_w: float

    def describe(self) -> str:
        """Human-readable description."""
        return f"{self.state.describe()} @ {self.power_cap_w:.0f}W"


#: An evaluator maps a candidate to its model-predicted metrics.
Evaluator = Callable[[SearchCandidate], CandidateEvaluation]


class SearchStrategy(Protocol):
    """Interface of a search strategy over candidates.

    The allocator decides grids larger than its ``batch_threshold`` from
    its own candidate table when the strategy is :class:`ExhaustiveSearch`;
    every other strategy, and every smaller grid, is searched here.
    """

    name: str

    def search(
        self,
        candidates: Sequence[SearchCandidate],
        evaluate: Evaluator,
    ) -> tuple[CandidateEvaluation, tuple[CandidateEvaluation, ...]]:
        """Return the best feasible evaluation and every evaluation performed."""
        ...


def _best_feasible(
    evaluations: Sequence[CandidateEvaluation],
) -> CandidateEvaluation:
    feasible = [e for e in evaluations if e.feasible]
    if not feasible:
        raise OptimizationError("no evaluated candidate satisfies the fairness constraint")
    return max(feasible, key=lambda e: e.objective)


class ExhaustiveSearch:
    """Evaluate every candidate (the paper's approach for the 24-point grid).

    On larger grids the allocator runs the same search over its candidate
    table, scoring the whole grid at once (see
    :mod:`repro.core.optimizer`), which is what keeps it fast on the much
    larger N-way candidate spaces.
    """

    name = "exhaustive"

    def search(
        self,
        candidates: Sequence[SearchCandidate],
        evaluate: Evaluator,
    ) -> tuple[CandidateEvaluation, tuple[CandidateEvaluation, ...]]:
        """Evaluate every candidate and return the best feasible one."""
        if not candidates:
            raise OptimizationError("the candidate space is empty")
        evaluations = tuple(evaluate(candidate) for candidate in candidates)
        return _best_feasible(evaluations), evaluations


class HillClimbingSearch:
    """Greedy local search over the (state index, power-cap index) grid.

    The search space is organised as a two-dimensional grid: one axis indexes
    the candidate partition states, the other the candidate power caps.
    Starting from one (or several, ``restarts``) random grid points the
    search repeatedly moves to the best improving neighbour (±1 along either
    axis).  Infeasible points are allowed as intermediate steps but can never
    be returned as the final answer.
    """

    name = "hill-climbing"

    def __init__(self, restarts: int = 3, seed: int = 2022) -> None:
        restarts = check_count("restarts", restarts, minimum=None)
        if restarts < 1:
            raise OptimizationError(f"restarts must be >= 1, got {restarts}")
        self._restarts = restarts
        # NumPy seeds its generators from non-negative integers only.
        self._seed = check_count("seed", seed, minimum=0)

    def search(
        self,
        candidates: Sequence[SearchCandidate],
        evaluate: Evaluator,
    ) -> tuple[CandidateEvaluation, tuple[CandidateEvaluation, ...]]:
        """Hill climb from ``restarts`` random starting points."""
        if not candidates:
            raise OptimizationError("the candidate space is empty")
        states: list[tuple] = []
        caps: list[float] = []
        for candidate in candidates:
            if candidate.state.key() not in states:
                states.append(candidate.state.key())
            if candidate.power_cap_w not in caps:
                caps.append(candidate.power_cap_w)
        caps.sort()
        grid: dict[tuple[int, int], SearchCandidate] = {}
        for candidate in candidates:
            grid[(states.index(candidate.state.key()), caps.index(candidate.power_cap_w))] = candidate

        rng = np.random.default_rng(self._seed)
        cache: dict[tuple[int, int], CandidateEvaluation] = {}

        def evaluate_cell(cell: tuple[int, int]) -> CandidateEvaluation:
            if cell not in cache:
                cache[cell] = evaluate(grid[cell])
            return cache[cell]

        def score(evaluation: CandidateEvaluation) -> float:
            # Infeasible points rank below every feasible point.
            if evaluation.feasible:
                return evaluation.objective
            return evaluation.objective - 1e6

        cells = sorted(grid)
        for _ in range(self._restarts):
            current = cells[int(rng.integers(len(cells)))]
            current_eval = evaluate_cell(current)
            improved = True
            while improved:
                improved = False
                si, pi = current
                neighbours = [
                    (si + 1, pi),
                    (si - 1, pi),
                    (si, pi + 1),
                    (si, pi - 1),
                ]
                for cell in neighbours:
                    if cell not in grid:
                        continue
                    candidate_eval = evaluate_cell(cell)
                    if score(candidate_eval) > score(current_eval):
                        current, current_eval = cell, candidate_eval
                        improved = True
        evaluations = tuple(cache.values())
        return _best_feasible(evaluations), evaluations
