"""The end-to-end workflow of Figure 7.

* **Offline** (:class:`OfflineTrainer`): run the predetermined benchmark set
  through the solo and co-run training sweeps and calibrate the model
  coefficients with least squares.
* **Online** (:class:`OnlineAllocator`): for an application pair coming from
  the co-scheduler, look up (or, on first sight, collect) their profiles and
  solve the requested optimization problem, returning the best partition
  state and power cap.

:class:`PaperWorkflow` bundles the two for convenience: it is what the
examples and benchmark harnesses instantiate to go from nothing to decisions
in a few lines.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.config import DEFAULT_POWER_CAPS, SCALABILITY_GPC_COUNTS
from repro.core.decision import AllocationDecision
from repro.core.features import DEFAULT_BASIS, BasisFunctions
from repro.core.model import LinearPerfModel
from repro.core.optimizer import ResourcePowerAllocator
from repro.core.policies import Policy, Problem1Policy, Problem2Policy
from repro.core.training import (
    ModelTrainer,
    collect_corun_measurements,
    collect_solo_measurements,
)
from repro.errors import (
    InfeasibleProblemError,
    MissingProfileError,
    PartitioningError,
)
from repro.gpu.mig import (
    CORUN_STATES,
    MemoryOption,
    PartitionState,
    enumerate_partition_states,
    mixed_training_states,
    shared_training_states,
)
from repro.gpu.spec import A100_SPEC, GPUSpec
from repro.profiling.database import ProfileDatabase
from repro.profiling.profiler import ProfileCollector
from repro.sim.engine import PerformanceSimulator
from repro.workloads.groups import (
    groups_of_size,
    synthetic_training_groups,
    tiny_pool_training_groups,
)
from repro.workloads.kernel import KernelCharacteristics
from repro.workloads.pairs import CORUN_PAIRS, CoRunPair
from repro.workloads.suite import BenchmarkSuite, DEFAULT_SUITE


#: Capacity of :meth:`OnlineAllocator.decide`'s LRU decision memo.
_DECISION_MEMO_SIZE = 4096

#: The paper's cap grid expressed as fractions of the factory power limit
#: (150–250 W on the 250 W A100); used to derive grids for other specs.
_CAP_FRACTIONS: tuple[float, ...] = (0.60, 0.68, 0.76, 0.84, 0.92, 1.00)


def power_caps_for_spec(spec: GPUSpec) -> tuple[float, ...]:
    """A Table 5-style power-cap grid scaled to ``spec``'s envelope.

    The fractions of the factory limit match the paper's A100 grid (for the
    A100 this reproduces ``DEFAULT_POWER_CAPS`` exactly); values below the
    spec's minimum supported cap are clamped up to it.
    """
    caps = []
    for fraction in _CAP_FRACTIONS:
        cap = max(spec.min_power_cap_w, fraction * spec.default_power_limit_w)
        if cap not in caps:
            caps.append(cap)
    return tuple(caps)


@dataclass(frozen=True)
class TrainingPlan:
    """What the offline stage will execute.

    Attributes
    ----------
    gpc_counts, options, power_caps:
        The solo-sweep grid (GPC counts × memory options × power caps).
    states:
        The co-run partition states used for the interference calibration.
        States of any group size may be listed; each training workload only
        executes the states matching its size, and *mixed* states feed the
        joint sub-chip shared GI fit (``ModelTrainer.fit_mixed``).
    """

    gpc_counts: tuple[int, ...] = SCALABILITY_GPC_COUNTS
    options: tuple[MemoryOption, ...] = (MemoryOption.PRIVATE, MemoryOption.SHARED)
    power_caps: tuple[float, ...] = DEFAULT_POWER_CAPS
    states: tuple[PartitionState, ...] = CORUN_STATES

    @property
    def pair_states(self) -> tuple[PartitionState, ...]:
        """The two-application states of the calibration grid."""
        return tuple(state for state in self.states if state.n_apps == 2)

    @property
    def mixed_states(self) -> tuple[PartitionState, ...]:
        """The mixed (multi-GI) states of the calibration grid."""
        return tuple(
            state for state in self.states if state.option is MemoryOption.MIXED
        )

    @property
    def group_sizes(self) -> tuple[int, ...]:
        """Sizes above two whose states need N-way training workloads."""
        return tuple(sorted({s.n_apps for s in self.states if s.n_apps > 2}))

    @classmethod
    def for_spec(
        cls,
        spec: GPUSpec,
        power_caps: Sequence[float] | None = None,
    ) -> "TrainingPlan":
        """A plan whose grid is derived from ``spec`` instead of Table 5.

        The solo sweep covers every instance size the spec's partition
        scheme offers, the interference calibration covers *every*
        realizable pair state, a covering subset of multi-application
        mixed states calibrates the sub-chip shared GI keys that only
        mixed layouts reach, and a covering subset of N≥3 full-chip
        shared states calibrates the composition correction
        (``ModelTrainer.fit_composition``), so the fitted coefficients
        support allocation decisions for groups of any size (the
        interference term composes additively over co-runners, Section
        4.3).  This is the plan to use for N-way scheduling or for
        non-A100 specs whose profile table differs.  Schemes without
        three-application mixed layouts (independent-axes partitioning
        only realizes symmetric compute groups) fall back to
        four-application mixed states so their sub-chip shared keys still
        get calibrated.
        """
        if power_caps is None:
            power_caps = power_caps_for_spec(spec)
        sizes = tuple(
            s for s in spec.scheme.instance_sizes(spec) if s <= spec.mig_gpcs
        )
        pair_states = tuple(
            enumerate_partition_states(
                2, spec, (MemoryOption.SHARED, MemoryOption.PRIVATE)
            )
        )
        mixed = mixed_training_states(spec)
        if not mixed:
            mixed = mixed_training_states(spec, 4)
        # Shared N≥3 states go last so the per-key measurement row order
        # of the pair and mixed fits is unchanged (bit-identical fits).
        return cls(
            gpc_counts=sizes,
            options=(MemoryOption.PRIVATE, MemoryOption.SHARED),
            power_caps=tuple(float(p) for p in power_caps),
            states=pair_states + mixed + shared_training_states(spec),
        )


def _default_plan_for(spec: GPUSpec) -> TrainingPlan:
    """The Table 5 plan on the A100, a spec-derived plan everywhere else.

    The paper's grid (S1–S4, 150–250 W) is hard-wired to the A100's
    envelope; other specs get :meth:`TrainingPlan.for_spec` so training
    stays within their cap range and instance-profile table.
    """
    if spec == A100_SPEC:
        return TrainingPlan()
    return TrainingPlan.for_spec(spec)


class OfflineTrainer:
    """The offline half of Figure 7: calibrate the model coefficients."""

    def __init__(
        self,
        simulator: PerformanceSimulator | None = None,
        suite: BenchmarkSuite = DEFAULT_SUITE,
        plan: TrainingPlan | None = None,
        basis: BasisFunctions = DEFAULT_BASIS,
    ) -> None:
        self._simulator = simulator if simulator is not None else PerformanceSimulator()
        if plan is None:
            plan = _default_plan_for(self._simulator.spec)
        self._suite = suite
        self._plan = plan
        self._basis = basis
        self._trainer = ModelTrainer(basis, spec=self._simulator.spec)

    @property
    def simulator(self) -> PerformanceSimulator:
        """The simulator used for training runs."""
        return self._simulator

    @property
    def plan(self) -> TrainingPlan:
        """The training plan in use."""
        return self._plan

    @property
    def trainer(self) -> ModelTrainer:
        """The underlying least-squares trainer (exposes the training report)."""
        return self._trainer

    def run(
        self,
        training_kernels: Iterable[KernelCharacteristics] | None = None,
        training_pairs: Sequence[CoRunPair] | None = None,
    ) -> LinearPerfModel:
        """Execute the training sweeps and return the calibrated model.

        ``training_kernels`` defaults to every benchmark of the suite;
        ``training_pairs`` defaults to the Table 8 co-run workloads.  The
        N-way sweep runs the predefined workloads of every size the plan's
        states need beyond pairs, plus synthetic groups densifying the
        mixed-state sweep.
        """
        kernels = (
            list(training_kernels)
            if training_kernels is not None
            else list(self._suite.all())
        )
        pairs = list(training_pairs) if training_pairs is not None else list(CORUN_PAIRS)
        solo = collect_solo_measurements(
            self._simulator,
            kernels,
            gpc_counts=self._plan.gpc_counts,
            options=self._plan.options,
            power_caps=self._plan.power_caps,
        )
        group_kernels = [pair.kernels(self._suite) for pair in pairs]
        group_kernels.extend(
            group.kernels(self._suite)
            for size in self._plan.group_sizes
            for group in groups_of_size(size)
        )
        # Sub-chip shared GI keys are calibrated jointly from mixed-state
        # rows only; densify that sweep with synthetic groups so the fit
        # spans the victim x co-runner feature plane beyond the handful of
        # named triples, plus the tiny-pool groups that give the
        # capacity-aware basis terms samples on both sides of the 2-slice
        # pool's clip point.
        for size in sorted({s.n_apps for s in self._plan.mixed_states}):
            group_kernels.extend(synthetic_training_groups(group_size=size))
            group_kernels.extend(tiny_pool_training_groups(group_size=size))
        corun = collect_corun_measurements(
            self._simulator,
            group_kernels,
            states=self._plan.states,
            power_caps=self._plan.power_caps,
        )
        return self._trainer.train(solo, corun)


class OnlineAllocator:
    """The online half of Figure 7: profile lookup + optimization.

    Decisions are not limited to pairs: for a group size with no configured
    candidate state the allocator enumerates every realizable state on
    ``spec`` (private, shared, and mixed GI layouts) and keeps those the
    trained model can evaluate.
    """

    def __init__(
        self,
        model: LinearPerfModel,
        database: ProfileDatabase | None = None,
        collector: ProfileCollector | None = None,
        candidate_states: Sequence[PartitionState] = CORUN_STATES,
        power_caps: Sequence[float] = DEFAULT_POWER_CAPS,
        spec: GPUSpec = A100_SPEC,
    ) -> None:
        self._database = database if database is not None else ProfileDatabase()
        self._collector = collector
        self._spec = spec
        self._model = model
        self._state_cache: dict[tuple, tuple[PartitionState, ...]] = {}
        # Decisions, or the message of an infeasible outcome, LRU-ordered.
        self._decisions: OrderedDict[tuple, AllocationDecision | str] = OrderedDict()
        self._allocator = ResourcePowerAllocator(
            model,
            candidate_states=candidate_states,
            power_caps=power_caps,
        )

    @property
    def database(self) -> ProfileDatabase:
        """The profile database backing the allocator."""
        return self._database

    @property
    def allocator(self) -> ResourcePowerAllocator:
        """The underlying Resource & Power Allocator."""
        return self._allocator

    # ------------------------------------------------------------------
    def ensure_profiled(self, kernel: KernelCharacteristics) -> None:
        """Collect and store a profile for ``kernel`` if none exists.

        This is the paper's "first run must be a profile run" rule; it only
        works when a collector was supplied, otherwise the application is
        simply reported as unprofiled.
        """
        if self._database.has(kernel.name):
            return
        if self._collector is None:
            raise MissingProfileError(
                f"no profile recorded for application {kernel.name!r} and no "
                "profile collector is configured"
            )
        self._database.add(self._collector.collect(kernel))

    def candidate_states_for(
        self, n_apps: int, power_caps: Sequence[float] | None = None
    ) -> tuple[PartitionState, ...]:
        """Candidate partition states for a group of ``n_apps`` applications.

        Configured states matching the group size win (this keeps the
        paper's S1–S4 behaviour for pairs); otherwise the states are
        enumerated from the spec.  Either way only states whose
        per-application hardware keys the model has coefficients for at
        every candidate cap are returned, so an off-grid cap shows up as an
        empty result instead of a :class:`NotFittedError` mid-search.  The
        result is cached per (group size, caps, model version).
        """
        caps = tuple(
            float(p)
            for p in (self._allocator.power_caps if power_caps is None else power_caps)
        )
        version = self._model.coefficients_version
        cache_key = (n_apps, caps, version)
        cached = self._state_cache.get(cache_key)
        if cached is not None:
            return cached
        # A refit invalidates everything cached for older versions; purge so
        # long-lived recalibrating processes don't accumulate stale entries.
        self._state_cache = {
            key: value for key, value in self._state_cache.items() if key[2] == version
        }
        configured = tuple(
            state
            for state in self._allocator.candidate_states
            if state.n_apps == n_apps
        )
        pool = configured if configured else enumerate_partition_states(n_apps, self._spec)
        supported = tuple(
            state for state in pool if self._model.supports_candidate(state, caps)
        )
        self._state_cache[cache_key] = supported
        return supported

    def decide(self, app_names: Sequence[str], policy: Policy) -> AllocationDecision:
        """Solve ``policy`` for the application group named in ``app_names``.

        Every application must already have a profile in the database.  The
        group may have any size; see :meth:`candidate_states_for` for how
        the candidate space is chosen.

        This is the one decision memo: outcomes are memoized on (group
        names, policy signature, model version), 4096 entries in LRU
        order.  The profile database is append-only (a name's counters
        never change once stored), so the full lookup — counters,
        candidate states, and the allocator's solve — is a pure function
        of that key.  Infeasible outcomes are memoized too: a repeat raises
        a fresh :class:`InfeasibleProblemError` with the same message.
        """
        key = (
            tuple(app_names),
            (
                type(policy).__name__,
                policy.name,
                float(policy.alpha),
                tuple(policy.candidate_power_caps()),
            ),
            self._model.coefficients_version,
        )
        memo = self._decisions
        outcome = memo.get(key)
        if outcome is None:
            try:
                outcome = memo[key] = self._solve(app_names, policy)
            except InfeasibleProblemError as exc:
                memo[key] = str(exc)
                raise
            finally:
                if len(memo) > _DECISION_MEMO_SIZE:
                    memo.popitem(last=False)
        else:
            memo.move_to_end(key)
        if isinstance(outcome, str):
            raise InfeasibleProblemError(outcome)
        return outcome

    def _solve(self, app_names: Sequence[str], policy: Policy) -> AllocationDecision:
        counters = [self._database.get(name).counters for name in app_names]
        policy_caps = policy.candidate_power_caps()
        states = self.candidate_states_for(len(app_names), policy_caps)
        if not states:
            # Distinguish an off-grid power cap (states exist, just not at
            # these caps) from a genuinely uncovered group size.
            if self.candidate_states_for(len(app_names)):
                raise InfeasibleProblemError(
                    f"the trained model has no coefficients for power cap(s) "
                    f"{tuple(float(p) for p in policy_caps)} W; fitted caps: "
                    f"{self._allocator.power_caps}"
                )
            raise InfeasibleProblemError(
                f"the trained model supports no partition state for a group of "
                f"{len(app_names)} application(s) on {self._spec.name}; train with "
                f"TrainingPlan.for_spec(spec) to cover the full instance-size grid"
            )
        return self._allocator.solve(counters, policy, states=states)


class PaperWorkflow:
    """Offline training + online decisions, bundled (Figure 7 end to end)."""

    def __init__(
        self,
        simulator: PerformanceSimulator | None = None,
        suite: BenchmarkSuite = DEFAULT_SUITE,
        plan: TrainingPlan | None = None,
        basis: BasisFunctions = DEFAULT_BASIS,
        candidate_states: Sequence[PartitionState] | None = None,
        power_caps: Sequence[float] | None = None,
    ) -> None:
        self._simulator = simulator if simulator is not None else PerformanceSimulator()
        self._suite = suite
        self._offline = OfflineTrainer(self._simulator, suite, plan, basis)
        spec = self._simulator.spec
        if candidate_states is None:
            candidate_states = self._default_candidate_states(spec)
        if power_caps is None:
            power_caps = power_caps_for_spec(spec)
        self._candidate_states = tuple(candidate_states)
        self._power_caps = tuple(float(p) for p in power_caps)
        self._model: LinearPerfModel | None = None
        self._online: OnlineAllocator | None = None

    @staticmethod
    def _default_candidate_states(spec: GPUSpec) -> tuple[PartitionState, ...]:
        """Table 5's S1–S4 when the spec realizes them, else spec-derived pairs."""
        try:
            for state in CORUN_STATES:
                state.validate_against(spec)
        except PartitioningError:
            return tuple(
                enumerate_partition_states(
                    2, spec, (MemoryOption.SHARED, MemoryOption.PRIVATE)
                )
            )
        return CORUN_STATES

    @property
    def simulator(self) -> PerformanceSimulator:
        """The simulator shared by training, profiling, and evaluation."""
        return self._simulator

    @property
    def suite(self) -> BenchmarkSuite:
        """The benchmark suite in use."""
        return self._suite

    @property
    def offline(self) -> OfflineTrainer:
        """The offline trainer (exposes the training plan and report)."""
        return self._offline

    @property
    def model(self) -> LinearPerfModel:
        """The trained model (training is triggered on first access)."""
        if self._model is None:
            self.train()
        assert self._model is not None
        return self._model

    @property
    def online(self) -> OnlineAllocator:
        """The online allocator (training is triggered on first access)."""
        if self._online is None:
            self.train()
        assert self._online is not None
        return self._online

    # ------------------------------------------------------------------
    def train(
        self,
        training_kernels: Iterable[KernelCharacteristics] | None = None,
        training_pairs: Sequence[CoRunPair] | None = None,
    ) -> LinearPerfModel:
        """Run the offline stage and set up the online allocator."""
        return self.adopt_model(self._offline.run(training_kernels, training_pairs))

    def adopt_model(self, model: LinearPerfModel) -> LinearPerfModel:
        """Install a pre-trained model, skipping the offline training sweeps.

        Profile collection still runs (it is one solo run per benchmark,
        cheap next to the calibration grid); this is the entry point the
        model store uses to make CLI invocations start from a cache instead
        of a 30-60 s retrain.
        """
        self._model = model
        collector = ProfileCollector(self._simulator)
        database = ProfileDatabase()
        collector.collect_into(self._suite.all(), database)
        self._online = OnlineAllocator(
            self._model,
            database=database,
            collector=collector,
            candidate_states=self._candidate_states,
            power_caps=self._power_caps,
            spec=self._simulator.spec,
        )
        return self._model

    def train_or_load(self, model_path: str | None) -> LinearPerfModel:
        """Load the model from ``model_path`` if it exists, else train and save.

        ``None`` falls back to a plain :meth:`train`.  The cache is
        fingerprinted with the spec name and cap grid, so a file trained for
        different hardware raises instead of mis-deciding.
        """
        if model_path is None:
            return self.train()
        from pathlib import Path

        from repro.core.modelstore import ModelFingerprint, load_model, save_model

        fingerprint = ModelFingerprint.for_workflow(
            self._simulator.spec, self._power_caps, plan=self._offline.plan
        )
        path = Path(model_path)
        if path.exists():
            return self.adopt_model(
                load_model(
                    path,
                    basis=self._offline.trainer.basis,
                    expected=fingerprint,
                    spec=self._simulator.spec,
                )
            )
        model = self.train()
        save_model(model, path, fingerprint)
        return model

    # ------------------------------------------------------------------
    def decide_problem1(
        self, app_names: Sequence[str], power_cap_w: float, alpha: float = 0.2
    ) -> AllocationDecision:
        """Problem 1 decision for a group of profiled applications."""
        return self.online.decide(
            app_names, Problem1Policy(power_cap_w=power_cap_w, alpha=alpha)
        )

    def decide_problem2(
        self, app_names: Sequence[str], alpha: float = 0.2
    ) -> AllocationDecision:
        """Problem 2 decision for a group of profiled applications."""
        return self.online.decide(
            app_names, Problem2Policy(alpha=alpha, power_caps=self._power_caps)
        )
