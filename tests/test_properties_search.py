"""Property-based tests for the search strategies over N-way candidate grids.

The key invariant: hill climbing evaluates a subset of the grid, so it can
never report a better feasible objective than exhaustive search on the same
candidates — on any group size, spec, policy, or seed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import ResourcePowerAllocator
from repro.core.policies import Problem1Policy, Problem2Policy
from repro.core.search import ExhaustiveSearch, HillClimbingSearch
from repro.errors import InfeasibleProblemError
from repro.workloads.pairs import CORUN_PAIRS

pair_strategy = st.sampled_from(CORUN_PAIRS)
alpha_strategy = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.42])
seed_strategy = st.integers(min_value=0, max_value=2**16)
restarts_strategy = st.integers(min_value=1, max_value=5)


@given(pair_strategy, alpha_strategy, seed_strategy, restarts_strategy)
@settings(max_examples=40, deadline=None)
def test_hill_climbing_never_beats_exhaustive_problem2(
    context, pair, alpha, seed, restarts
):
    counters = list(context.pair_profiles(pair))
    policy = Problem2Policy(alpha=alpha)
    exhaustive_alloc = ResourcePowerAllocator(context.model, search=ExhaustiveSearch())
    climbing_alloc = ResourcePowerAllocator(
        context.model, search=HillClimbingSearch(restarts=restarts, seed=seed)
    )
    try:
        exhaustive = exhaustive_alloc.solve(counters, policy)
    except InfeasibleProblemError:
        # If the full grid has no feasible point, the subset cannot either.
        with pytest.raises(InfeasibleProblemError):
            climbing_alloc.solve(counters, policy)
        return
    try:
        climbing = climbing_alloc.solve(counters, policy)
    except InfeasibleProblemError:
        # The heuristic may visit only infeasible cells; that is allowed —
        # it just must never *beat* the exhaustive optimum.
        return
    assert climbing.predicted_objective <= exhaustive.predicted_objective + 1e-12
    assert climbing.candidates_evaluated <= exhaustive.candidates_evaluated


@given(pair_strategy, alpha_strategy, seed_strategy)
@settings(max_examples=25, deadline=None)
def test_hill_climbing_never_beats_exhaustive_problem1(context, pair, alpha, seed):
    counters = list(context.pair_profiles(pair))
    policy = Problem1Policy(power_cap_w=230.0, alpha=alpha)
    exhaustive_alloc = ResourcePowerAllocator(context.model, search=ExhaustiveSearch())
    climbing_alloc = ResourcePowerAllocator(
        context.model, search=HillClimbingSearch(restarts=2, seed=seed)
    )
    try:
        exhaustive = exhaustive_alloc.solve(counters, policy)
    except InfeasibleProblemError:
        with pytest.raises(InfeasibleProblemError):
            climbing_alloc.solve(counters, policy)
        return
    try:
        climbing = climbing_alloc.solve(counters, policy)
    except InfeasibleProblemError:
        return
    assert climbing.predicted_objective <= exhaustive.predicted_objective + 1e-12
