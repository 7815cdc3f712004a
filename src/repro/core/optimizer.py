"""The Resource & Power Allocator (the right-hand half of Figure 1).

Given the profiles of the applications in a co-location group, the
allocator evaluates every candidate combination of partition state and power
cap with the linear performance model, filters by the fairness constraint,
and returns the combination that maximizes the policy's objective.

When the candidate space grows beyond the paper's 24-point grid (more
applications, finer partitioning), the whole ``(S, P)`` grid is predicted
in one **batched** NumPy call (see
:meth:`LinearPerfModel.predict_candidates`) whenever the search strategy
can consume it.  Every call solves; repeated decisions are memoized one
layer up, by :meth:`repro.core.workflow.OnlineAllocator.decide`.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import DEFAULT_POWER_CAPS
from repro.core.decision import AllocationDecision, CandidateEvaluation
from repro.core.metrics import fairness as fairness_metric
from repro.core.metrics import fairness_batch, weighted_speedup, weighted_speedup_batch
from repro.core.model import LinearPerfModel
from repro.core.policies import Policy, Problem1Policy, Problem2Policy
from repro.core.search import ExhaustiveSearch, SearchCandidate, SearchStrategy
from repro.errors import InfeasibleProblemError, OptimizationError
from repro.gpu.mig import CORUN_STATES, PartitionState
from repro.sim.counters import CounterVector


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
        Candidate-grid size above which the batched NumPy evaluation is
        used.  The default equals the paper's 4-state × 6-cap grid, so the
        original evaluation stays bit-identical to the scalar path while
        every larger (N-way / finer-grained) grid is vectorized; batched
        and scalar results agree to floating-point associativity either
        way.  Set to 0 to always batch.
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

    def evaluate_candidates_batch(
        self,
        counters_list: Sequence[CounterVector],
        candidates: Sequence[SearchCandidate],
        policy: Policy,
    ) -> tuple[CandidateEvaluation, ...]:
        """Metrics of many ``(S, P)`` combinations via one vectorized call.

        The per-candidate records are identical to what
        :meth:`evaluate_candidate` produces; only the model evaluation is
        batched.
        """
        predictions = self._model.predict_candidates(
            counters_list, [(c.state, c.power_cap_w) for c in candidates]
        )
        throughputs = weighted_speedup_batch(predictions)
        fairnesses = fairness_batch(predictions)
        evaluations = []
        for index, candidate in enumerate(candidates):
            throughput = float(throughputs[index])
            fairness = float(fairnesses[index])
            evaluations.append(
                CandidateEvaluation(
                    state=candidate.state,
                    power_cap_w=float(candidate.power_cap_w),
                    predicted_rperfs=tuple(float(v) for v in predictions[index]),
                    predicted_throughput=throughput,
                    predicted_fairness=fairness,
                    objective=policy.objective(throughput, candidate.power_cap_w),
                    feasible=policy.is_feasible(fairness),
                )
            )
        return tuple(evaluations)

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
            feasible=policy.is_feasible(fairness),
        )

    def _states_for(
        self, n_apps: int, states: Sequence[PartitionState] | None
    ) -> tuple[PartitionState, ...]:
        pool = self._states if states is None else tuple(states)
        matching = tuple(state for state in pool if state.n_apps == n_apps)
        if not matching:
            raise InfeasibleProblemError(
                f"no candidate partition state describes {n_apps} application(s); "
                f"available group sizes: {sorted({s.n_apps for s in pool})}"
            )
        return matching

    def _candidates(
        self, policy: Policy, states: Sequence[PartitionState]
    ) -> list[SearchCandidate]:
        return [
            SearchCandidate(state=state, power_cap_w=float(power_cap))
            for state in states
            for power_cap in policy.candidate_power_caps()
        ]

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
        matching_states = self._states_for(len(counters_list), states)
        candidates = self._candidates(policy, matching_states)

        def evaluate(candidate: SearchCandidate) -> CandidateEvaluation:
            return self.evaluate_candidate(
                counters_list, candidate.state, candidate.power_cap_w, policy
            )

        def evaluate_batch(
            batch: Sequence[SearchCandidate],
        ) -> tuple[CandidateEvaluation, ...]:
            return self.evaluate_candidates_batch(counters_list, batch, policy)

        use_batch = (
            getattr(self._search, "accepts_batch", False)
            and len(candidates) > self._batch_threshold
        )
        try:
            if use_batch:
                best, evaluations = self._search.search(
                    candidates, evaluate, evaluate_batch=evaluate_batch
                )
            else:
                best, evaluations = self._search.search(candidates, evaluate)
        except OptimizationError as exc:
            raise InfeasibleProblemError(
                f"policy {policy.name}: {exc} "
                f"(alpha={policy.alpha}, {len(candidates)} candidates)"
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
