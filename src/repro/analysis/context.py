"""Shared evaluation context.

Regenerating the paper's figures needs three expensive-ish ingredients: a
simulator, a trained model, and the measured co-run grid (every Table 8 pair
on every state and power cap).  :class:`EvaluationContext` builds the first
two once; the grid is answered by the simulator's own run memo and the
counters by the workflow's profile store, so the individual figure
generators stay cheap and consistent with each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import DEFAULT_CONFIG, EvaluationConfig
from repro.core.model import LinearPerfModel
from repro.core.workflow import PaperWorkflow
from repro.sim.counters import CounterVector
from repro.sim.engine import PerformanceSimulator
from repro.sim.results import CoRunResult
from repro.workloads.pairs import CORUN_PAIRS, CoRunPair, corun_pair
from repro.workloads.suite import BenchmarkSuite, DEFAULT_SUITE


@dataclass
class EvaluationContext:
    """Trained workflow + cached measurements for the evaluation harness."""

    workflow: PaperWorkflow
    config: EvaluationConfig = field(default_factory=lambda: DEFAULT_CONFIG)

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        config: EvaluationConfig = DEFAULT_CONFIG,
        suite: BenchmarkSuite = DEFAULT_SUITE,
        simulator: PerformanceSimulator | None = None,
    ) -> "EvaluationContext":
        """Build a context: construct the workflow and run offline training."""
        workflow = PaperWorkflow(
            simulator=simulator,
            suite=suite,
            candidate_states=config.candidate_states,
            power_caps=config.power_caps,
        )
        workflow.train()
        return cls(workflow=workflow, config=config)

    # ------------------------------------------------------------------
    @property
    def simulator(self) -> PerformanceSimulator:
        """The simulator used for both training and "measured" runs."""
        return self.workflow.simulator

    @property
    def model(self) -> LinearPerfModel:
        """The trained performance model."""
        return self.workflow.model

    @property
    def suite(self) -> BenchmarkSuite:
        """The benchmark suite in use."""
        return self.workflow.suite

    @property
    def pairs(self) -> tuple[CoRunPair, ...]:
        """The Table 8 co-run workloads."""
        return CORUN_PAIRS

    # ------------------------------------------------------------------
    def profile(self, name: str) -> CounterVector:
        """Profiled counters of one benchmark, from the workflow's profile store."""
        return self.workflow.online.database.get(name).counters

    def pair_profiles(self, pair: CoRunPair | str) -> tuple[CounterVector, CounterVector]:
        """Profiled counters of both applications of a pair."""
        if isinstance(pair, str):
            pair = corun_pair(pair)
        return (self.profile(pair.app1), self.profile(pair.app2))

    def measured(self, pair: CoRunPair | str, state, power_cap_w: float) -> CoRunResult:
        """Measured ("simulated ground truth") co-run result.

        The simulator's run memo answers a repeat with the same result.
        """
        if isinstance(pair, str):
            pair = corun_pair(pair)
        return self.simulator.co_run(list(pair.kernels(self.suite)), state, power_cap_w)
