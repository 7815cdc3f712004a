"""Data generators for the paper's figures.

Each ``figureN_*`` function reproduces the data series behind one figure of
the paper.  The returned dataclasses carry plain numbers so that the
benchmark harnesses can print them as tables and assert the qualitative
shape (who wins, by roughly what factor, where the crossovers fall).

"Measured" always means the simulator's ground truth (with measurement
noise); "estimated"/"proposal" always means the trained linear model and the
allocator driven by it — the same separation the paper maintains between the
A100 measurements and its model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.context import EvaluationContext
from repro.core.decision import AllocationDecision
from repro.core.metrics import (
    fairness,
    geometric_mean,
    mean_absolute_percentage_error,
    weighted_speedup,
)
from repro.core.optimizer import ResourcePowerAllocator
from repro.core.policies import Policy, Problem1Policy, Problem2Policy
from repro.errors import InfeasibleProblemError
from repro.gpu.mig import MemoryOption, PartitionState
from repro.sim.sweep import scalability_power_sweep, scalability_sweep
from repro.workloads.pairs import CoRunPair

#: Benchmarks shown in the observation figures (one per class, as in §3).
OBSERVATION_KERNELS: tuple[str, ...] = ("kmeans", "stream", "dgemm", "hgemm")

#: Co-run workloads shown in Figure 6.  The paper's prose describes the
#: second one as (dgemm, dwt2d), i.e. CI-US2; CI-US1 is also included for
#: completeness.
FIGURE6_PAIRS: tuple[str, ...] = ("TI-MI2", "CI-US1", "CI-US2")


# ----------------------------------------------------------------------
# Observation figures (Section 3)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScalabilityCurve:
    """One scalability curve: relative performance per GPC count."""

    kernel: str
    label: str
    points: tuple[tuple[int, float], ...]

    def value_at(self, gpcs: int) -> float:
        """Relative performance at a specific GPC count."""
        for g, value in self.points:
            if g == gpcs:
                return value
        raise KeyError(f"no point for {gpcs} GPCs in curve {self.kernel}/{self.label}")


@dataclass(frozen=True)
class Figure4Data:
    """Figure 4: solo scalability, private vs shared, at 250 W."""

    power_cap_w: float
    curves: tuple[ScalabilityCurve, ...]

    def curve(self, kernel: str, option: MemoryOption) -> ScalabilityCurve:
        """The curve of one kernel and memory option."""
        label = option.value
        for curve in self.curves:
            if curve.kernel == kernel and curve.label == label:
                return curve
        raise KeyError(f"no curve for {kernel}/{label}")


def figure4_scalability_partitioning(
    context: EvaluationContext,
    kernels: Sequence[str] = OBSERVATION_KERNELS,
    power_cap_w: float = 250.0,
) -> Figure4Data:
    """Figure 4: scalability for both partitioning options at 250 W."""
    curves: list[ScalabilityCurve] = []
    for name in kernels:
        kernel = context.suite.get(name)
        points = scalability_sweep(
            context.simulator,
            kernel,
            gpc_counts=context.config.scalability_gpc_counts,
            power_cap_w=power_cap_w,
        )
        for option in (MemoryOption.PRIVATE, MemoryOption.SHARED):
            series = tuple(
                (p.gpcs, p.relative_performance)
                for p in points
                if p.option is option
            )
            curves.append(ScalabilityCurve(kernel=name, label=option.value, points=series))
    return Figure4Data(power_cap_w=power_cap_w, curves=tuple(curves))


@dataclass(frozen=True)
class Figure5Data:
    """Figure 5: solo scalability for several power caps (shared option)."""

    option: MemoryOption
    curves: tuple[ScalabilityCurve, ...]

    def curve(self, kernel: str, power_cap_w: float) -> ScalabilityCurve:
        """The curve of one kernel at one power cap."""
        label = f"{power_cap_w:.0f}W"
        for curve in self.curves:
            if curve.kernel == kernel and curve.label == label:
                return curve
        raise KeyError(f"no curve for {kernel}/{label}")


def figure5_scalability_power(
    context: EvaluationContext,
    kernels: Sequence[str] = OBSERVATION_KERNELS,
    option: MemoryOption = MemoryOption.SHARED,
) -> Figure5Data:
    """Figure 5: scalability while scaling the power cap from 150 W to 250 W."""
    curves: list[ScalabilityCurve] = []
    for name in kernels:
        kernel = context.suite.get(name)
        points = scalability_power_sweep(
            context.simulator,
            kernel,
            gpc_counts=context.config.scalability_gpc_counts,
            power_caps=context.config.power_caps,
            option=option,
        )
        for power_cap in context.config.power_caps:
            series = tuple(
                (p.gpcs, p.relative_performance)
                for p in points
                if p.power_cap_w == power_cap
            )
            curves.append(
                ScalabilityCurve(kernel=name, label=f"{power_cap:.0f}W", points=series)
            )
    return Figure5Data(option=option, curves=tuple(curves))


@dataclass(frozen=True)
class Figure6Data:
    """Figure 6: co-run throughput per partition state (S1–S4)."""

    power_cap_w: float
    throughput: Mapping[str, Mapping[str, float]]  # pair name -> state label -> WS

    def best_state(self, pair_name: str) -> str:
        """The state label with the highest measured throughput for a pair."""
        row = self.throughput[pair_name]
        return max(row, key=lambda label: row[label])

    def spread(self, pair_name: str) -> float:
        """Best-over-worst throughput ratio for a pair."""
        row = self.throughput[pair_name]
        return max(row.values()) / min(row.values())


def figure6_corun_throughput(
    context: EvaluationContext,
    pair_names: Sequence[str] = FIGURE6_PAIRS,
    power_cap_w: float = 250.0,
) -> Figure6Data:
    """Figure 6: impact of the partition/allocation state on throughput."""
    table: dict[str, dict[str, float]] = {}
    for pair_name in pair_names:
        row: dict[str, float] = {}
        for state in context.config.candidate_states:
            result = context.measured(pair_name, state, power_cap_w)
            row[state.label or state.describe()] = result.weighted_speedup
        table[pair_name] = row
    return Figure6Data(power_cap_w=power_cap_w, throughput=table)


# ----------------------------------------------------------------------
# Model accuracy (Figure 8 / Section 5.2.1)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AccuracyRow:
    """Estimated vs measured metrics for one (pair, state, power cap)."""

    pair: str
    state_label: str
    power_cap_w: float
    measured_throughput: float
    estimated_throughput: float
    measured_fairness: float
    estimated_fairness: float


@dataclass(frozen=True)
class Figure8Data:
    """Figure 8: estimated vs measured throughput/fairness at one power cap."""

    power_cap_w: float
    rows: tuple[AccuracyRow, ...]

    @property
    def throughput_mape_pct(self) -> float:
        """Average relative throughput error in percent."""
        return mean_absolute_percentage_error(
            [r.estimated_throughput for r in self.rows], [r.measured_throughput for r in self.rows]
        )

    @property
    def fairness_mape_pct(self) -> float:
        """Average relative fairness error in percent."""
        return mean_absolute_percentage_error(
            [r.estimated_fairness for r in self.rows], [r.measured_fairness for r in self.rows]
        )


def figure8_model_accuracy(
    context: EvaluationContext,
    power_cap_w: float = 250.0,
    pairs: Sequence[CoRunPair] | None = None,
) -> Figure8Data:
    """Figure 8: model accuracy across workloads and states at one cap."""
    rows: list[AccuracyRow] = []
    for pair in pairs if pairs is not None else context.pairs:
        counters = context.pair_profiles(pair)
        for state in context.config.candidate_states:
            estimated = context.model.predict_corun(list(counters), state, power_cap_w)
            measured = context.measured(pair, state, power_cap_w)
            rows.append(
                AccuracyRow(
                    pair=pair.name,
                    state_label=state.label or state.describe(),
                    power_cap_w=power_cap_w,
                    measured_throughput=measured.weighted_speedup,
                    estimated_throughput=weighted_speedup(estimated),
                    measured_fairness=measured.fairness,
                    estimated_fairness=fairness(estimated),
                )
            )
    return Figure8Data(power_cap_w=power_cap_w, rows=tuple(rows))


# ----------------------------------------------------------------------
# Problem 1 (Figures 9 and 10)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadComparison:
    """Measured worst / proposal / best metric for one workload."""

    pair: str
    worst: float
    proposal: float
    best: float
    proposal_state: str
    proposal_power_cap_w: float
    fairness_violated: bool

    @property
    def proposal_vs_best(self) -> float:
        """How close the proposal is to the best (1.0 = optimal)."""
        return self.proposal / self.best if self.best > 0 else 0.0


@dataclass(frozen=True)
class ComparisonSummary:
    """A per-workload comparison plus its geometric means."""

    rows: tuple[WorkloadComparison, ...]

    @property
    def geomean_worst(self) -> float:
        """Geometric mean of the worst configuration's metric."""
        return geometric_mean([r.worst for r in self.rows])

    @property
    def geomean_proposal(self) -> float:
        """Geometric mean of the proposal's metric."""
        return geometric_mean([r.proposal for r in self.rows])

    @property
    def geomean_best(self) -> float:
        """Geometric mean of the best configuration's metric."""
        return geometric_mean([r.best for r in self.rows])

    @property
    def fairness_violations(self) -> int:
        """Number of workloads whose proposal violated the fairness constraint."""
        return sum(1 for r in self.rows if r.fairness_violated)

    def row(self, pair_name: str) -> WorkloadComparison:
        """The comparison row of one workload."""
        for row in self.rows:
            if row.pair == pair_name:
                return row
        raise KeyError(f"no comparison row for workload {pair_name!r}")


def _allocator(context: EvaluationContext) -> ResourcePowerAllocator:
    return ResourcePowerAllocator(
        context.model,
        candidate_states=context.config.candidate_states,
        power_caps=context.config.power_caps,
    )


def _decide(
    allocator: ResourcePowerAllocator,
    counters: Sequence,
    policy: Policy,
) -> AllocationDecision | None:
    """Run the allocator; return ``None`` when no candidate is predicted feasible."""
    try:
        return allocator.solve(list(counters), policy)
    except InfeasibleProblemError:
        return None


def _problem_comparison(
    context: EvaluationContext,
    policy_for_pair,
    metric,
    candidate_caps,
) -> ComparisonSummary:
    """Shared worst/proposal/best machinery for Problems 1 and 2.

    ``policy_for_pair`` builds the policy; ``metric`` maps a measured
    :class:`~repro.sim.results.CoRunResult` to the objective value;
    ``candidate_caps`` is the list of caps the measured best/worst may pick
    from (a single cap for Problem 1, the full grid for Problem 2).
    """
    allocator = _allocator(context)
    rows: list[WorkloadComparison] = []
    for pair in context.pairs:
        policy = policy_for_pair(pair)
        counters = context.pair_profiles(pair)
        # Measured candidates that satisfy the fairness constraint.
        feasible: list[tuple[PartitionState, float, float]] = []
        for state in context.config.candidate_states:
            for cap in candidate_caps:
                measured = context.measured(pair, state, cap)
                if measured.fairness > policy.alpha:
                    feasible.append((state, cap, metric(measured)))
        if not feasible:
            # No measured configuration satisfies the constraint; skip the
            # workload (cannot happen for the paper's alpha range).
            continue
        best = max(value for _, _, value in feasible)
        worst = min(value for _, _, value in feasible)
        decision = _decide(allocator, counters, policy)
        if decision is None:
            # The model predicts no feasible candidate; fall back to the
            # candidate with the best predicted fairness, as a real allocator
            # would, and record the (potential) violation below.
            evaluations = [
                allocator.evaluate_candidate(list(counters), state, cap, policy)
                for state in context.config.candidate_states
                for cap in policy.candidate_power_caps()
            ]
            chosen = max(evaluations, key=lambda e: e.predicted_fairness)
            chosen_state, chosen_cap = chosen.state, chosen.power_cap_w
        else:
            chosen_state, chosen_cap = decision.state, decision.power_cap_w
        proposal_measured = context.measured(pair, chosen_state, chosen_cap)
        rows.append(
            WorkloadComparison(
                pair=pair.name,
                worst=worst,
                proposal=metric(proposal_measured),
                best=best,
                proposal_state=chosen_state.label or chosen_state.describe(),
                proposal_power_cap_w=chosen_cap,
                fairness_violated=proposal_measured.fairness <= policy.alpha,
            )
        )
    return ComparisonSummary(rows=tuple(rows))


@dataclass(frozen=True)
class Figure9Data:
    """Figure 9: Problem 1 throughput comparison at one cap and alpha."""

    power_cap_w: float
    alpha: float
    comparison: ComparisonSummary


def figure9_problem1(
    context: EvaluationContext,
    power_cap_w: float | None = None,
    alpha: float | None = None,
) -> Figure9Data:
    """Figure 9: worst / proposal / best throughput per workload (Problem 1)."""
    cap = power_cap_w if power_cap_w is not None else context.config.problem1_power_cap_w
    fairness_alpha = alpha if alpha is not None else context.config.alpha
    comparison = _problem_comparison(
        context,
        policy_for_pair=lambda pair: Problem1Policy(power_cap_w=cap, alpha=fairness_alpha),
        metric=lambda result: result.weighted_speedup,
        candidate_caps=(cap,),
    )
    return Figure9Data(power_cap_w=cap, alpha=fairness_alpha, comparison=comparison)


@dataclass(frozen=True)
class Figure10Data:
    """Figure 10: Problem 1 geomean throughput as a function of the power cap."""

    alpha: float
    per_power_cap: Mapping[float, ComparisonSummary]

    def geomeans(self) -> tuple[tuple[float, float, float, float], ...]:
        """Rows of (power cap, geomean worst, geomean proposal, geomean best)."""
        return tuple(
            (
                cap,
                summary.geomean_worst,
                summary.geomean_proposal,
                summary.geomean_best,
            )
            for cap, summary in sorted(self.per_power_cap.items())
        )


def figure10_problem1_power_sweep(
    context: EvaluationContext,
    alpha: float | None = None,
) -> Figure10Data:
    """Figure 10: Problem 1 solved at every power cap of the grid."""
    fairness_alpha = alpha if alpha is not None else context.config.alpha
    per_cap: dict[float, ComparisonSummary] = {}
    for cap in context.config.power_caps:
        per_cap[float(cap)] = _problem_comparison(
            context,
            policy_for_pair=lambda pair, cap=cap: Problem1Policy(
                power_cap_w=cap, alpha=fairness_alpha
            ),
            metric=lambda result: result.weighted_speedup,
            candidate_caps=(cap,),
        )
    return Figure10Data(alpha=fairness_alpha, per_power_cap=per_cap)


# ----------------------------------------------------------------------
# Problem 2 (Figures 11, 12 and 13)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure11Data:
    """Figure 11: Problem 2 energy-efficiency comparison per alpha."""

    per_alpha: Mapping[float, ComparisonSummary]


def figure11_problem2_efficiency(
    context: EvaluationContext,
    alphas: Sequence[float] | None = None,
) -> Figure11Data:
    """Figure 11: worst / proposal / best energy efficiency per workload."""
    alpha_values = tuple(alphas) if alphas is not None else context.config.problem2_alphas
    per_alpha: dict[float, ComparisonSummary] = {}
    for alpha in alpha_values:
        per_alpha[float(alpha)] = _problem_comparison(
            context,
            policy_for_pair=lambda pair, alpha=alpha: Problem2Policy(
                alpha=alpha, power_caps=context.config.power_caps
            ),
            metric=lambda result: result.energy_efficiency,
            candidate_caps=context.config.power_caps,
        )
    return Figure11Data(per_alpha=per_alpha)


@dataclass(frozen=True)
class PowerSelectionRow:
    """Power caps selected by the worst / proposal / best configuration."""

    pair: str
    worst_power_w: float
    proposal_power_w: float
    best_power_w: float


@dataclass(frozen=True)
class Figure12Data:
    """Figure 12: power-cap selections of Problem 2, per alpha."""

    per_alpha: Mapping[float, tuple[PowerSelectionRow, ...]]


def figure12_problem2_power_selection(
    context: EvaluationContext,
    alphas: Sequence[float] | None = None,
) -> Figure12Data:
    """Figure 12: which power cap each strategy selects, per workload."""
    alpha_values = tuple(alphas) if alphas is not None else context.config.problem2_alphas
    allocator = _allocator(context)
    per_alpha: dict[float, tuple[PowerSelectionRow, ...]] = {}
    for alpha in alpha_values:
        rows: list[PowerSelectionRow] = []
        policy = Problem2Policy(alpha=alpha, power_caps=context.config.power_caps)
        for pair in context.pairs:
            counters = context.pair_profiles(pair)
            feasible: list[tuple[float, float]] = []  # (efficiency, cap)
            for state in context.config.candidate_states:
                for cap in context.config.power_caps:
                    measured = context.measured(pair, state, cap)
                    if measured.fairness > alpha:
                        feasible.append((measured.energy_efficiency, float(cap)))
            if not feasible:
                continue
            best_power = max(feasible)[1]
            worst_power = min(feasible)[1]
            decision = _decide(allocator, counters, policy)
            if decision is None:
                proposal_power = max(context.config.power_caps)
            else:
                proposal_power = decision.power_cap_w
            rows.append(
                PowerSelectionRow(
                    pair=pair.name,
                    worst_power_w=worst_power,
                    proposal_power_w=proposal_power,
                    best_power_w=best_power,
                )
            )
        per_alpha[float(alpha)] = tuple(rows)
    return Figure12Data(per_alpha=per_alpha)


@dataclass(frozen=True)
class Figure13Data:
    """Figure 13: geomean energy efficiency as a function of alpha."""

    per_alpha: Mapping[float, ComparisonSummary]

    def geomeans(self) -> tuple[tuple[float, float, float, float], ...]:
        """Rows of (alpha, geomean worst, geomean proposal, geomean best)."""
        return tuple(
            (
                alpha,
                summary.geomean_worst,
                summary.geomean_proposal,
                summary.geomean_best,
            )
            for alpha, summary in sorted(self.per_alpha.items())
        )


def figure13_efficiency_vs_alpha(
    context: EvaluationContext,
    alphas: Sequence[float] | None = None,
) -> Figure13Data:
    """Figure 13: Problem 2 geomean energy efficiency over the alpha sweep."""
    alpha_values = tuple(alphas) if alphas is not None else context.config.alpha_sweep
    per_alpha: dict[float, ComparisonSummary] = {}
    for alpha in alpha_values:
        per_alpha[float(alpha)] = _problem_comparison(
            context,
            policy_for_pair=lambda pair, alpha=alpha: Problem2Policy(
                alpha=alpha, power_caps=context.config.power_caps
            ),
            metric=lambda result: result.energy_efficiency,
            candidate_caps=context.config.power_caps,
        )
    return Figure13Data(per_alpha=per_alpha)
