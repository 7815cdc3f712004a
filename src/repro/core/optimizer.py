"""The Resource & Power Allocator (the right-hand half of Figure 1).

Given the profiles of the applications in a co-location group, the
allocator evaluates every candidate combination of partition state and power
cap with the linear performance model, filters by the fairness constraint,
and returns the combination that maximizes the policy's objective.

When an exhaustive search's candidate space grows beyond the paper's
24-point grid (more applications, finer partitioning), the allocator
decides from a **candidate table** instead: one per (candidate state pool,
group size, policy caps, model coefficients version), built on first use,
holding the grid's ``(S, P)`` rows in search order, its cap column and the
model's coefficients gathered for every row.  A solve predicts the whole
grid in one NumPy call (:meth:`LinearPerfModel.predict_candidates`), scores
it by calling the policy's ``objective`` and ``is_feasible`` once on whole
columns, and takes the first maximal feasible row — the row ``max`` picks
on the scalar path.  The decision carries those columns as a
:class:`~repro.core.decision.CandidateColumns`, which builds a candidate's
record only when someone reads it.  Every call solves; repeated decisions
are memoized one layer up, by
:meth:`repro.core.workflow.OnlineAllocator.decide`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import DEFAULT_POWER_CAPS
from repro.core.decision import AllocationDecision, CandidateColumns, CandidateEvaluation
from repro.core.metrics import fairness as fairness_metric
from repro.core.metrics import fairness_batch, weighted_speedup, weighted_speedup_batch
from repro.core.model import CandidateCoefficients, LinearPerfModel
from repro.core.policies import Policy, Problem1Policy, Problem2Policy
from repro.core.search import ExhaustiveSearch, SearchCandidate, SearchStrategy
from repro.errors import InfeasibleProblemError, OptimizationError
from repro.gpu.mig import CORUN_STATES, PartitionState
from repro.sim.counters import CounterVector

#: Candidate tables one allocator keeps; the oldest goes first.
_TABLE_CACHE_SIZE = 8


@dataclass(frozen=True)
class _CandidateTable:
    """One candidate grid: its ``(state, cap)`` rows in search order, the
    cap column and the model's coefficients gathered for every row."""

    rows: tuple[tuple[PartitionState, float], ...]
    caps: np.ndarray
    coefficients: CandidateCoefficients


class ResourcePowerAllocator:
    """Chooses the partition state, job allocation, and power cap for a group.

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.model.LinearPerfModel`.
    candidate_states:
        Partition/allocation states to consider (Table 5's S1–S4 by default).
        Job allocation is part of the state: S1 vs S2 (and S3 vs S4) differ
        only in which application receives the larger partition.  States for
        any group size may be mixed freely; each solve only considers the
        states matching its group.
    power_caps:
        Power caps Problem 2 may choose from.
    search:
        Search strategy over the candidate space (exhaustive by default, as
        in the paper).
    batch_threshold:
        Candidate-grid size above which an exhaustive search decides from
        the allocator's candidate table (one vectorized predict and
        column-wise scoring of the whole grid) instead of candidate by
        candidate.  The default equals the paper's 4-state × 6-cap grid,
        so pair decisions keep the scalar path bit for bit while every
        larger (N-way / finer-grained) grid is vectorized; batched and
        scalar results agree to floating-point associativity either way.
        Set to 0 to always batch.  Hill climbing is always scalar.
    """

    def __init__(
        self,
        model: LinearPerfModel,
        candidate_states: Sequence[PartitionState] = CORUN_STATES,
        power_caps: Sequence[float] = DEFAULT_POWER_CAPS,
        search: SearchStrategy | None = None,
        batch_threshold: int = 24,
    ) -> None:
        if not candidate_states:
            raise OptimizationError("at least one candidate partition state is required")
        if not power_caps:
            raise OptimizationError("at least one candidate power cap is required")
        if any(p <= 0 for p in power_caps):
            raise OptimizationError(f"power caps must be positive, got {tuple(power_caps)}")
        self._model = model
        self._states = tuple(candidate_states)
        self._power_caps = tuple(float(p) for p in power_caps)
        self._search: SearchStrategy = search if search is not None else ExhaustiveSearch()
        if batch_threshold < 0:
            raise OptimizationError(f"batch_threshold must be >= 0, got {batch_threshold}")
        self._batch_threshold = batch_threshold
        # Candidate tables keyed on (states, caps, coefficients version).
        self._tables: dict[tuple, _CandidateTable] = {}

    # ------------------------------------------------------------------
    @property
    def model(self) -> LinearPerfModel:
        """The performance model used for predictions."""
        return self._model

    @property
    def candidate_states(self) -> tuple[PartitionState, ...]:
        """The candidate partition states."""
        return self._states

    @property
    def power_caps(self) -> tuple[float, ...]:
        """The candidate power caps for Problem 2."""
        return self._power_caps

    # ------------------------------------------------------------------
    # Candidate evaluation
    # ------------------------------------------------------------------
    def evaluate_candidate(
        self,
        counters_list: Sequence[CounterVector],
        state: PartitionState,
        power_cap_w: float,
        policy: Policy,
    ) -> CandidateEvaluation:
        """Model-predicted metrics of one ``(S, P)`` combination."""
        predictions = self._model.predict_corun(counters_list, state, power_cap_w)
        return self._evaluation_from_predictions(
            predictions, state, power_cap_w, policy
        )

    def _evaluation_from_predictions(
        self,
        predictions: tuple[float, ...],
        state: PartitionState,
        power_cap_w: float,
        policy: Policy,
    ) -> CandidateEvaluation:
        throughput = weighted_speedup(predictions)
        fairness = fairness_metric(predictions)
        return CandidateEvaluation(
            state=state,
            power_cap_w=float(power_cap_w),
            predicted_rperfs=tuple(predictions),
            predicted_throughput=throughput,
            predicted_fairness=fairness,
            objective=policy.objective(throughput, power_cap_w),
            feasible=bool(policy.is_feasible(fairness)),
        )

    def _add_table(
        self,
        key: tuple,
        states: tuple[PartitionState, ...],
        caps: tuple[float, ...],
    ) -> _CandidateTable:
        """Build and keep the candidate table of ``states`` × ``caps``.

        ``key`` is (state pool, group size, caps, coefficients version):
        the pool as the caller passed it, labels included (a relabelled
        grid renders its own labels), so a repeat finds its table without
        filtering the pool again.  A refit drops every older version's
        table, and past ``_TABLE_CACHE_SIZE`` tables the oldest goes.
        """
        tables = self._tables
        version = key[-1]
        for stale in [k for k in tables if k[-1] != version]:
            del tables[stale]
        if len(tables) >= _TABLE_CACHE_SIZE:
            del tables[next(iter(tables))]
        rows = tuple((state, cap) for state in states for cap in caps)
        table = tables[key] = _CandidateTable(
            rows,
            np.array([cap for _, cap in rows], dtype=float),
            self._model.gather_candidates(rows, states[0].n_apps),
        )
        return table

    def _decide_from_table(
        self,
        counters_list: Sequence[CounterVector],
        policy: Policy,
        table: _CandidateTable,
    ) -> tuple[CandidateEvaluation, CandidateColumns]:
        """The first maximal feasible row of ``table`` and every row's columns.

        The rows read as the records :meth:`evaluate_candidate` gives up to
        the batched predict's float associativity, and the pick is the row
        ``max`` takes over the feasible records.  Only the pick's record is
        built here.
        """
        predictions = self._model.predict_candidates(counters_list, table.coefficients)
        throughputs = weighted_speedup_batch(predictions)
        fairnesses = fairness_batch(predictions)
        objectives = policy.objective(throughputs, table.caps)
        feasible = policy.is_feasible(fairnesses)
        feasible_rows = np.flatnonzero(feasible)
        if not feasible_rows.size:
            raise OptimizationError("no evaluated candidate satisfies the fairness constraint")
        evaluations = CandidateColumns(
            table.rows, predictions, throughputs, fairnesses, objectives, feasible
        )
        best = int(feasible_rows[np.argmax(objectives[feasible_rows])])
        return evaluations[best], evaluations

    @staticmethod
    def _states_for(
        n_apps: int, pool: tuple[PartitionState, ...]
    ) -> tuple[PartitionState, ...]:
        matching = tuple(state for state in pool if state.n_apps == n_apps)
        if not matching:
            raise InfeasibleProblemError(
                f"no candidate partition state describes {n_apps} application(s); "
                f"available group sizes: {sorted({s.n_apps for s in pool})}"
            )
        return matching

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        counters_list: Sequence[CounterVector],
        policy: Policy,
        states: Sequence[PartitionState] | None = None,
    ) -> AllocationDecision:
        """Pick the best feasible ``(S, P)`` combination for ``policy``.

        ``states`` optionally overrides the configured candidate states
        (used by the online layer to supply spec-derived N-way states);
        either way only states matching the group size are considered.
        """
        n_apps = len(counters_list)
        pool = self._states if states is None else tuple(states)
        caps = tuple(float(cap) for cap in policy.candidate_power_caps())
        key = (pool, n_apps, caps, self._model.coefficients_version)
        table = self._tables.get(key)
        candidates: list[SearchCandidate] = []
        if table is None:
            matching_states = self._states_for(n_apps, pool)
            if (
                isinstance(self._search, ExhaustiveSearch)
                and len(matching_states) * len(caps) > self._batch_threshold
            ):
                table = self._add_table(key, matching_states, caps)
            else:
                candidates = [
                    SearchCandidate(state=state, power_cap_w=cap)
                    for state in matching_states
                    for cap in caps
                ]
        n_candidates = len(candidates) if table is None else len(table.rows)

        def evaluate(candidate: SearchCandidate) -> CandidateEvaluation:
            return self.evaluate_candidate(
                counters_list, candidate.state, candidate.power_cap_w, policy
            )

        evaluations: Sequence[CandidateEvaluation]
        try:
            if table is not None:
                best, evaluations = self._decide_from_table(counters_list, policy, table)
            else:
                best, evaluations = self._search.search(candidates, evaluate)
        except OptimizationError as exc:
            raise InfeasibleProblemError(
                f"policy {policy.name}: {exc} "
                f"(alpha={policy.alpha}, {n_candidates} candidates)"
            ) from exc
        return AllocationDecision(
            state=best.state,
            power_cap_w=best.power_cap_w,
            predicted_rperfs=best.predicted_rperfs,
            predicted_throughput=best.predicted_throughput,
            predicted_fairness=best.predicted_fairness,
            predicted_objective=best.objective,
            policy_name=policy.name,
            candidates_evaluated=len(evaluations),
            evaluations=evaluations,
        )

    def solve_problem1(
        self,
        counters_list: Sequence[CounterVector],
        power_cap_w: float,
        alpha: float = 0.2,
    ) -> AllocationDecision:
        """Problem 1: maximize throughput at a fixed cap under the fairness constraint."""
        return self.solve(counters_list, Problem1Policy(power_cap_w=power_cap_w, alpha=alpha))

    def solve_problem2(
        self,
        counters_list: Sequence[CounterVector],
        alpha: float = 0.2,
    ) -> AllocationDecision:
        """Problem 2: maximize energy efficiency over both the state and the cap."""
        return self.solve(
            counters_list, Problem2Policy(alpha=alpha, power_caps=self._power_caps)
        )
