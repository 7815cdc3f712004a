"""Design-choice ablations.

The paper fixes several design choices without quantifying them (Section 6
acknowledges this).  These ablations measure what each choice contributes,
using the same simulator ground truth as the main evaluation:

* **Interference term** — predict co-runs with the scalability term only
  (``D ≡ 0``) and compare the accuracy against the full model.
* **Basis functions** — train with the hand-designed Table 4 basis vs. raw
  counters.
* **Search strategy** — exhaustive search vs. hill climbing on the paper's
  24-point candidate space: do they pick the same configuration and how much
  objective is lost if not?
* **Measurement noise** — how the model error grows with the measurement
  noise level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.context import EvaluationContext
from repro.core.features import DEFAULT_BASIS, RAW_COUNTER_BASIS, BasisFunctions
from repro.core.model import HardwareStateKey
from repro.core.optimizer import ResourcePowerAllocator
from repro.core.policies import Problem2Policy
from repro.core.search import ExhaustiveSearch, HillClimbingSearch
from repro.core.workflow import PaperWorkflow
from repro.errors import InfeasibleProblemError
from repro.sim.engine import PerformanceSimulator
from repro.sim.noise import NoiseModel
from repro.workloads.suite import DEFAULT_SUITE


# ----------------------------------------------------------------------
# Interference-term ablation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InterferenceAblationResult:
    """Model accuracy with and without the interference term."""

    full_throughput_mape_pct: float
    full_fairness_mape_pct: float
    no_interference_throughput_mape_pct: float
    no_interference_fairness_mape_pct: float

    @property
    def throughput_degradation_pct(self) -> float:
        """How much the throughput error grows when the D term is dropped."""
        return self.no_interference_throughput_mape_pct - self.full_throughput_mape_pct


def interference_term_ablation(
    context: EvaluationContext,
    power_caps: Sequence[float] | None = None,
) -> InterferenceAblationResult:
    """Compare the full model against one that ignores the interference term."""
    caps = tuple(power_caps) if power_caps is not None else context.config.power_caps
    full_t, full_f, bare_t, bare_f = [], [], [], []
    model = context.model
    for pair in context.pairs:
        counters = context.pair_profiles(pair)
        for state in context.config.candidate_states:
            for cap in caps:
                measured = context.measured(pair, state, cap)
                full = model.predict_corun(list(counters), state, cap)
                bare = tuple(
                    model.predict_rperf(
                        counters[i],
                        HardwareStateKey.from_state(
                            state, i, cap, context.simulator.spec
                        ),
                        co_counters=(),
                    )
                    for i in range(state.n_apps)
                )
                full_t.append(abs(sum(full) - measured.weighted_speedup) / measured.weighted_speedup)
                bare_t.append(abs(sum(bare) - measured.weighted_speedup) / measured.weighted_speedup)
                full_f.append(abs(min(full) - measured.fairness) / measured.fairness)
                bare_f.append(abs(min(bare) - measured.fairness) / measured.fairness)
    scale = 100.0 / len(full_t)
    return InterferenceAblationResult(
        full_throughput_mape_pct=sum(full_t) * scale,
        full_fairness_mape_pct=sum(full_f) * scale,
        no_interference_throughput_mape_pct=sum(bare_t) * scale,
        no_interference_fairness_mape_pct=sum(bare_f) * scale,
    )


# ----------------------------------------------------------------------
# Basis-function ablation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BasisAblationResult:
    """Model accuracy per basis-function choice."""

    throughput_mape_pct: Mapping[str, float]
    fairness_mape_pct: Mapping[str, float]


def basis_function_ablation(
    context: EvaluationContext,
    bases: Sequence[BasisFunctions] = (DEFAULT_BASIS, RAW_COUNTER_BASIS),
    power_caps: Sequence[float] | None = None,
) -> BasisAblationResult:
    """Train one model per basis and compare their accuracy."""
    caps = tuple(power_caps) if power_caps is not None else context.config.power_caps
    throughput: dict[str, float] = {}
    fairness: dict[str, float] = {}
    for basis in bases:
        workflow = PaperWorkflow(
            simulator=context.simulator,
            suite=context.suite,
            basis=basis,
            candidate_states=context.config.candidate_states,
            power_caps=context.config.power_caps,
        )
        model = workflow.train()
        t_errors, f_errors = [], []
        for pair in context.pairs:
            counters = context.pair_profiles(pair)
            for state in context.config.candidate_states:
                for cap in caps:
                    measured = context.measured(pair, state, cap)
                    predicted = model.predict_corun(list(counters), state, cap)
                    t_errors.append(
                        abs(sum(predicted) - measured.weighted_speedup)
                        / measured.weighted_speedup
                    )
                    f_errors.append(
                        abs(min(predicted) - measured.fairness) / measured.fairness
                    )
        throughput[basis.name] = 100.0 * sum(t_errors) / len(t_errors)
        fairness[basis.name] = 100.0 * sum(f_errors) / len(f_errors)
    return BasisAblationResult(throughput_mape_pct=throughput, fairness_mape_pct=fairness)


# ----------------------------------------------------------------------
# Search-strategy ablation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchAblationResult:
    """Agreement between exhaustive search and hill climbing."""

    n_workloads: int
    n_same_decision: int
    mean_objective_ratio: float
    exhaustive_candidates_evaluated: int
    hill_climbing_candidates_evaluated: int

    @property
    def agreement(self) -> float:
        """Fraction of workloads where both strategies pick the same (S, P)."""
        return self.n_same_decision / self.n_workloads if self.n_workloads else 1.0


def search_strategy_ablation(
    context: EvaluationContext,
    alpha: float = 0.2,
) -> SearchAblationResult:
    """Compare exhaustive search with hill climbing on Problem 2."""
    exhaustive = ResourcePowerAllocator(
        context.model,
        candidate_states=context.config.candidate_states,
        power_caps=context.config.power_caps,
        search=ExhaustiveSearch(),
    )
    climber = ResourcePowerAllocator(
        context.model,
        candidate_states=context.config.candidate_states,
        power_caps=context.config.power_caps,
        search=HillClimbingSearch(restarts=3),
    )
    same = 0
    total = 0
    ratios = []
    exhaustive_evals = 0
    climber_evals = 0
    for pair in context.pairs:
        counters = list(context.pair_profiles(pair))
        policy = Problem2Policy(alpha=alpha, power_caps=context.config.power_caps)
        try:
            reference = exhaustive.solve(counters, policy)
            candidate = climber.solve(counters, policy)
        except InfeasibleProblemError:
            continue
        total += 1
        exhaustive_evals += reference.candidates_evaluated
        climber_evals += candidate.candidates_evaluated
        if (
            candidate.state.key() == reference.state.key()
            and candidate.power_cap_w == reference.power_cap_w
        ):
            same += 1
        if reference.predicted_objective > 0:
            ratios.append(candidate.predicted_objective / reference.predicted_objective)
    return SearchAblationResult(
        n_workloads=total,
        n_same_decision=same,
        mean_objective_ratio=sum(ratios) / len(ratios) if ratios else 1.0,
        exhaustive_candidates_evaluated=exhaustive_evals,
        hill_climbing_candidates_evaluated=climber_evals,
    )


# ----------------------------------------------------------------------
# Noise-sensitivity ablation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NoiseAblationResult:
    """Model accuracy as a function of the measurement-noise level."""

    throughput_mape_pct_by_sigma: Mapping[float, float]
    fairness_mape_pct_by_sigma: Mapping[float, float]


def noise_sensitivity_ablation(
    sigmas: Sequence[float] = (0.0, 0.03, 0.08),
    power_caps: Sequence[float] = (250.0,),
) -> NoiseAblationResult:
    """Re-run training + accuracy evaluation at several noise levels."""
    throughput: dict[float, float] = {}
    fairness: dict[float, float] = {}
    for sigma in sigmas:
        simulator = PerformanceSimulator(noise=NoiseModel(sigma=sigma))
        context = EvaluationContext.create(suite=DEFAULT_SUITE, simulator=simulator)
        t_errors, f_errors = [], []
        for pair in context.pairs:
            counters = context.pair_profiles(pair)
            for state in context.config.candidate_states:
                for cap in power_caps:
                    measured = context.measured(pair, state, cap)
                    predicted = context.model.predict_corun(list(counters), state, cap)
                    t_errors.append(
                        abs(sum(predicted) - measured.weighted_speedup)
                        / measured.weighted_speedup
                    )
                    f_errors.append(
                        abs(min(predicted) - measured.fairness) / measured.fairness
                    )
        throughput[float(sigma)] = 100.0 * sum(t_errors) / len(t_errors)
        fairness[float(sigma)] = 100.0 * sum(f_errors) / len(f_errors)
    return NoiseAblationResult(
        throughput_mape_pct_by_sigma=throughput,
        fairness_mape_pct_by_sigma=fairness,
    )
