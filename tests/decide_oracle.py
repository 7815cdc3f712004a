"""The record-by-record batched solve the allocator's candidate tables
replaced, kept as a reference.

:func:`evaluate_candidates_batch` is the batched evaluation as the
allocator once ran it: one :meth:`LinearPerfModel.predict_candidates` call
over the whole grid, then one :class:`CandidateEvaluation` per candidate,
scored through the policy's ``objective``/``is_feasible`` one row at a
time.  :func:`best_feasible` is the exhaustive search's pick (``max`` over
the feasible records, so the first of equal objectives wins), and
:func:`solve` chains the two over the candidates in search order, so a
table-driven :meth:`ResourcePowerAllocator.solve` can be checked against
it record for record.
"""

from __future__ import annotations

from repro.core.decision import AllocationDecision, CandidateEvaluation
from repro.core.metrics import fairness_batch, weighted_speedup_batch
from repro.errors import InfeasibleProblemError, OptimizationError


def evaluate_candidates_batch(model, counters_list, candidates, policy):
    """Metrics of many ``(state, cap)`` candidates via one vectorized predict."""
    predictions = model.predict_candidates(counters_list, candidates)
    throughputs = weighted_speedup_batch(predictions)
    fairnesses = fairness_batch(predictions)
    evaluations = []
    for index, (state, power_cap_w) in enumerate(candidates):
        throughput = float(throughputs[index])
        fairness = float(fairnesses[index])
        evaluations.append(
            CandidateEvaluation(
                state=state,
                power_cap_w=float(power_cap_w),
                predicted_rperfs=tuple(float(v) for v in predictions[index]),
                predicted_throughput=throughput,
                predicted_fairness=fairness,
                objective=policy.objective(throughput, power_cap_w),
                feasible=policy.is_feasible(fairness),
            )
        )
    return tuple(evaluations)


def best_feasible(evaluations):
    """The feasible record with the largest objective, the first on ties."""
    feasible = [e for e in evaluations if e.feasible]
    if not feasible:
        raise OptimizationError("no evaluated candidate satisfies the fairness constraint")
    return max(feasible, key=lambda e: e.objective)


def solve(model, candidate_states, counters_list, policy, states=None):
    """The allocator's batched exhaustive solve over ``states`` (or
    ``candidate_states``) matching the group size, record by record."""
    pool = candidate_states if states is None else tuple(states)
    n_apps = len(counters_list)
    matching = [state for state in pool if state.n_apps == n_apps]
    if not matching:
        raise InfeasibleProblemError(
            f"no candidate partition state describes {n_apps} application(s); "
            f"available group sizes: {sorted({s.n_apps for s in pool})}"
        )
    candidates = [
        (state, float(cap)) for state in matching for cap in policy.candidate_power_caps()
    ]
    evaluations = evaluate_candidates_batch(model, counters_list, candidates, policy)
    try:
        best = best_feasible(evaluations)
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
