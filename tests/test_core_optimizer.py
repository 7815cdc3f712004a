"""Tests for the Resource & Power Allocator."""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_POWER_CAPS
from repro.core.optimizer import ResourcePowerAllocator
from repro.core.policies import Problem1Policy, Problem2Policy
from repro.errors import InfeasibleProblemError, OptimizationError
from repro.gpu.mig import CORUN_STATES
from repro.workloads.pairs import corun_pair


@pytest.fixture()
def allocator(context):
    return ResourcePowerAllocator(context.model)


@pytest.fixture()
def ti_mi_profiles(context):
    return list(context.pair_profiles(corun_pair("TI-MI2")))


def solve_problem2(allocator, counters, alpha):
    """Problem 2 over the allocator's own cap grid."""
    return allocator.solve(
        counters, Problem2Policy(alpha=alpha, power_caps=allocator.power_caps)
    )


class TestConstruction:
    def test_requires_states_and_caps(self, trained_model):
        with pytest.raises(OptimizationError):
            ResourcePowerAllocator(trained_model, candidate_states=())
        with pytest.raises(OptimizationError):
            ResourcePowerAllocator(trained_model, power_caps=())

    def test_defaults_match_paper_grid(self, allocator):
        assert allocator.candidate_states == CORUN_STATES
        assert allocator.power_caps == DEFAULT_POWER_CAPS


class TestCandidateEvaluation:
    def test_evaluation_fields_are_consistent(self, allocator, ti_mi_profiles):
        policy = Problem1Policy(power_cap_w=230, alpha=0.2)
        evaluation = allocator.evaluate_candidate(ti_mi_profiles, CORUN_STATES[0], 230, policy)
        assert evaluation.predicted_throughput == pytest.approx(sum(evaluation.predicted_rperfs))
        assert evaluation.predicted_fairness == pytest.approx(min(evaluation.predicted_rperfs))
        assert evaluation.objective == pytest.approx(evaluation.predicted_throughput)
        assert evaluation.feasible == (evaluation.predicted_fairness > 0.2)

    def test_problem2_objective_divides_by_power(self, allocator, ti_mi_profiles):
        policy = Problem2Policy(alpha=0.2)
        evaluation = allocator.evaluate_candidate(ti_mi_profiles, CORUN_STATES[0], 210, policy)
        assert evaluation.objective == pytest.approx(evaluation.predicted_throughput / 210)


class TestProblem1:
    def test_decision_structure(self, allocator, ti_mi_profiles):
        decision = allocator.solve(ti_mi_profiles, Problem1Policy(power_cap_w=230, alpha=0.2))
        assert decision.power_cap_w == 230.0
        assert decision.state in CORUN_STATES
        assert decision.candidates_evaluated == len(CORUN_STATES)
        assert decision.predicted_fairness > 0.2
        assert decision.policy_name.startswith("problem1")

    def test_selects_s1_for_ti_mi_pair(self, allocator, ti_mi_profiles):
        """The paper's flagship example: give the Tensor-intensive kernel the
        bigger partition and share the memory system with stream."""
        decision = allocator.solve(ti_mi_profiles, Problem1Policy(power_cap_w=250, alpha=0.2))
        assert decision.state.label == "S1"

    def test_selects_private_for_ci_us_pair(self, allocator, context):
        profiles = list(context.pair_profiles(corun_pair("CI-US1")))
        decision = allocator.solve(profiles, Problem1Policy(power_cap_w=250, alpha=0.2))
        assert decision.state.label in ("S3", "S4")

    def test_decision_is_best_among_evaluations(self, allocator, ti_mi_profiles):
        decision = allocator.solve(ti_mi_profiles, Problem1Policy(power_cap_w=230, alpha=0.2))
        feasible = [e for e in decision.evaluations if e.feasible]
        assert decision.predicted_objective == pytest.approx(
            max(e.objective for e in feasible)
        )

    def test_impossible_alpha_raises(self, allocator, ti_mi_profiles):
        with pytest.raises(InfeasibleProblemError):
            allocator.solve(ti_mi_profiles, Problem1Policy(power_cap_w=230, alpha=0.99))


class TestProblem2:
    def test_decision_includes_power_cap_choice(self, allocator, ti_mi_profiles):
        decision = solve_problem2(allocator, ti_mi_profiles, alpha=0.2)
        assert decision.power_cap_w in DEFAULT_POWER_CAPS
        assert decision.candidates_evaluated == len(CORUN_STATES) * len(DEFAULT_POWER_CAPS)
        assert decision.policy_name.startswith("problem2")

    def test_higher_alpha_never_lowers_selected_power_for_tensor_pair(self, allocator, context):
        """A stricter fairness constraint forces higher power for TI-TI pairs
        (both kernels suffer badly from throttling)."""
        profiles = list(context.pair_profiles(corun_pair("TI-TI1")))
        relaxed = solve_problem2(allocator, profiles, alpha=0.1)
        strict = solve_problem2(allocator, profiles, alpha=0.3)
        assert strict.power_cap_w >= relaxed.power_cap_w

    def test_us_pair_gets_lowest_power(self, allocator, context):
        """Two unscalable kernels keep ~full performance at any cap, so the
        most energy-efficient choice is the lowest cap."""
        profiles = list(context.pair_profiles(corun_pair("US-US2")))
        decision = solve_problem2(allocator, profiles, alpha=0.2)
        assert decision.power_cap_w == min(DEFAULT_POWER_CAPS)

    def test_objective_matches_throughput_per_watt(self, allocator, ti_mi_profiles):
        decision = solve_problem2(allocator, ti_mi_profiles, alpha=0.2)
        assert decision.predicted_objective == pytest.approx(
            decision.predicted_throughput / decision.power_cap_w
        )

    def test_describe_mentions_state_and_power(self, allocator, ti_mi_profiles):
        decision = solve_problem2(allocator, ti_mi_profiles, alpha=0.2)
        text = decision.describe()
        assert str(int(decision.power_cap_w)) in text
        assert decision.state.label in text
