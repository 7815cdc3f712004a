"""Tests for the search strategies over the (S, P) candidate space."""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_POWER_CAPS
from repro.core.decision import CandidateEvaluation
from repro.core.search import ExhaustiveSearch, HillClimbingSearch, SearchCandidate
from repro.errors import ConfigurationError, OptimizationError
from repro.gpu.mig import CORUN_STATES


def make_candidates(power_caps=DEFAULT_POWER_CAPS):
    return [
        SearchCandidate(state=state, power_cap_w=float(cap))
        for state in CORUN_STATES
        for cap in power_caps
    ]


def make_evaluator(objective_fn, feasible_fn=lambda c: True):
    def evaluate(candidate: SearchCandidate) -> CandidateEvaluation:
        objective = objective_fn(candidate)
        return CandidateEvaluation(
            state=candidate.state,
            power_cap_w=candidate.power_cap_w,
            predicted_rperfs=(0.5, 0.5),
            predicted_throughput=1.0,
            predicted_fairness=0.5,
            objective=objective,
            feasible=feasible_fn(candidate),
        )

    return evaluate


def smooth_objective(candidate: SearchCandidate) -> float:
    """A unimodal objective: prefers S1 and 190 W."""
    state_score = {"S1": 4, "S2": 3, "S3": 2, "S4": 1}[candidate.state.label]
    return state_score - abs(candidate.power_cap_w - 190.0) / 100.0


class TestExhaustiveSearch:
    def test_finds_global_best(self):
        best, evaluations = ExhaustiveSearch().search(make_candidates(), make_evaluator(smooth_objective))
        assert best.state.label == "S1"
        assert best.power_cap_w == 190.0
        assert len(evaluations) == 24

    def test_ignores_infeasible_candidates(self):
        evaluator = make_evaluator(
            smooth_objective, feasible_fn=lambda c: c.state.label != "S1"
        )
        best, _ = ExhaustiveSearch().search(make_candidates(), evaluator)
        assert best.state.label == "S2"

    def test_all_infeasible_raises(self):
        evaluator = make_evaluator(smooth_objective, feasible_fn=lambda c: False)
        with pytest.raises(OptimizationError):
            ExhaustiveSearch().search(make_candidates(), evaluator)

    def test_empty_candidates_raise(self):
        with pytest.raises(OptimizationError):
            ExhaustiveSearch().search([], make_evaluator(smooth_objective))


class TestHillClimbingSearch:
    def test_finds_optimum_of_unimodal_objective(self):
        best, evaluations = HillClimbingSearch(restarts=3, seed=0).search(
            make_candidates(), make_evaluator(smooth_objective)
        )
        assert best.state.label == "S1"
        assert best.power_cap_w == 190.0
        # Hill climbing should not need to evaluate every candidate.
        assert len(evaluations) <= 24

    def test_respects_feasibility(self):
        evaluator = make_evaluator(smooth_objective, feasible_fn=lambda c: c.power_cap_w >= 190)
        best, _ = HillClimbingSearch(restarts=4, seed=1).search(make_candidates(), evaluator)
        assert best.power_cap_w >= 190

    def test_all_infeasible_raises(self):
        evaluator = make_evaluator(smooth_objective, feasible_fn=lambda c: False)
        with pytest.raises(OptimizationError):
            HillClimbingSearch(restarts=2).search(make_candidates(), evaluator)

    def test_deterministic_for_fixed_seed(self):
        evaluator = make_evaluator(smooth_objective)
        best_a, _ = HillClimbingSearch(restarts=2, seed=7).search(make_candidates(), evaluator)
        best_b, _ = HillClimbingSearch(restarts=2, seed=7).search(make_candidates(), evaluator)
        assert best_a.state.label == best_b.state.label
        assert best_a.power_cap_w == best_b.power_cap_w

    def test_invalid_restarts(self):
        with pytest.raises(OptimizationError):
            HillClimbingSearch(restarts=0)

    @pytest.mark.parametrize("value", [2.5, True, float("nan")])
    @pytest.mark.parametrize("knob", ["restarts", "seed"])
    def test_counts_must_be_integers(self, knob, value):
        # These used to construct and then fail in search (or, for
        # restarts=True, run one restart).
        with pytest.raises(ConfigurationError, match=knob):
            HillClimbingSearch(**{knob: value})

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ConfigurationError, match="seed"):
            HillClimbingSearch(seed=-1)

    def test_agrees_with_exhaustive_on_paper_sized_space(self, context):
        """On the paper's 24-candidate space the heuristic should match the
        exhaustive answer for the actual trained model."""
        from repro.core.optimizer import ResourcePowerAllocator
        from repro.core.policies import Problem2Policy
        from repro.workloads.pairs import corun_pair

        counters = list(context.pair_profiles(corun_pair("TI-MI2")))
        policy = Problem2Policy(alpha=0.2)
        exhaustive = ResourcePowerAllocator(context.model, search=ExhaustiveSearch()).solve(
            counters, policy
        )
        climbing = ResourcePowerAllocator(
            context.model, search=HillClimbingSearch(restarts=3)
        ).solve(counters, policy)
        assert climbing.predicted_objective == pytest.approx(
            exhaustive.predicted_objective, rel=0.02
        )
