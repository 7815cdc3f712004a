"""Tests for the optimization policies (Problems 1 and 2)."""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_POWER_CAPS
from repro.core.policies import Policy, Problem1Policy, Problem2Policy, make_policy
from repro.errors import ConfigurationError


class TestProblem1:
    def test_objective_is_throughput(self):
        policy = Problem1Policy(power_cap_w=230, alpha=0.2)
        assert policy.objective(1.4, 230) == pytest.approx(1.4)

    def test_candidate_caps_is_the_given_one(self):
        policy = Problem1Policy(power_cap_w=230)
        assert policy.candidate_power_caps() == (230.0,)

    def test_fairness_constraint_is_strict(self):
        policy = Problem1Policy(power_cap_w=230, alpha=0.2)
        assert policy.is_feasible(0.21)
        assert not policy.is_feasible(0.2)
        assert not policy.is_feasible(0.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Problem1Policy(power_cap_w=-1)
        with pytest.raises(ConfigurationError):
            Problem1Policy(power_cap_w=230, alpha=1.2)

    def test_satisfies_policy_protocol(self):
        assert isinstance(Problem1Policy(power_cap_w=230), Policy)


class TestProblem2:
    def test_objective_is_efficiency(self):
        policy = Problem2Policy(alpha=0.2)
        assert policy.objective(1.5, 150) == pytest.approx(0.01)

    def test_lower_cap_preferred_for_equal_throughput(self):
        policy = Problem2Policy()
        assert policy.objective(1.2, 150) > policy.objective(1.2, 250)

    def test_candidate_caps_default_to_table5(self):
        assert Problem2Policy().candidate_power_caps() == DEFAULT_POWER_CAPS

    def test_custom_caps(self):
        policy = Problem2Policy(power_caps=(170, 210))
        assert policy.candidate_power_caps() == (170.0, 210.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Problem2Policy(alpha=-0.1)
        with pytest.raises(ConfigurationError):
            Problem2Policy(power_caps=())
        with pytest.raises(ConfigurationError):
            Problem2Policy(power_caps=(0.0,))

    def test_satisfies_policy_protocol(self):
        assert isinstance(Problem2Policy(), Policy)


class TestMakePolicy:
    def test_problem1_aliases(self):
        # The names match exactly: no alias, no case folding.
        policy = make_policy("problem1", alpha=0.3, power_cap_w=210)
        assert isinstance(policy, Problem1Policy)
        assert policy.alpha == 0.3
        for name in ("throughput", "Problem1"):
            with pytest.raises(ConfigurationError):
                make_policy(name, alpha=0.3, power_cap_w=210)

    def test_problem2_aliases(self):
        assert isinstance(make_policy("problem2", alpha=0.2), Problem2Policy)
        for name in ("energy-efficiency", "efficiency", "Problem2"):
            with pytest.raises(ConfigurationError):
                make_policy(name, alpha=0.2)

    def test_problem1_requires_cap(self):
        with pytest.raises(ConfigurationError):
            make_policy("problem1", alpha=0.2)

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            make_policy("problem3", alpha=0.2)
