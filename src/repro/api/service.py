"""The :class:`PlannerService` facade: one public surface over the engine.

The paper's split is offline-train / online-allocate; the service makes
that split *operational*: it owns a session cache keyed by
``(spec, training grid, model path)`` so the expensive offline stage runs
at most once per distinct configuration per process, while every
``decide()`` / ``simulate()`` call after the first is pure online work.
With a ``model_dir`` the trained coefficients also persist across
processes through :mod:`repro.core.modelstore` (fingerprinted, so a stale
cache is rejected instead of silently mis-deciding).

This is the layer the CLI, the examples, and any embedding caller talk
to; the engine classes (:class:`~repro.core.workflow.PaperWorkflow`,
:class:`~repro.core.workflow.OnlineAllocator`, ...) stay available for
research code that needs custom plans, but nothing above this module
needs to rebuild trainer/suite/allocator plumbing per call any more.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from repro.api.requests import (
    DecisionRequest,
    LintRequest,
    SimulationRequest,
    StatesRequest,
)
from repro.api.results import (
    DecisionResult,
    LintResult,
    PartitionStateRow,
    SimulationResult,
    StatesResult,
)
from repro.core.decision import AllocationDecision
from repro.core.modelstore import ModelFingerprint, cache_path_for
from repro.core.workflow import PaperWorkflow, TrainingPlan, power_caps_for_spec
from repro.gpu.mig import enumerate_partition_states
from repro.gpu.spec import spec_by_name
from repro.sim.engine import PerformanceSimulator
from repro.traces.trace import Trace
from repro.workloads.mixes import mix_by_name

#: Marks sessions trained on the paper's Table 5 pair grid (A100 pairs).
TABLE5_GRID = "table5"
#: Marks sessions trained on the spec-derived N-way grid.
GENERAL_GRID = "general"


@dataclass(frozen=True)
class SessionKey:
    """What distinguishes one trained session from another.

    Two requests share a session — and therefore a trained model and an
    online allocator — exactly when they agree on the hardware spec, on
    which training grid covers them (the paper's Table 5 pair grid vs the
    spec-derived N-way grid), and on the model-cache path.
    """

    spec: str
    grid: str
    model_path: str | None = None


@dataclass(frozen=True)
class PlannerSession:
    """One trained workflow the service keeps hot.

    ``workflow`` is fully trained by the time a session is handed out;
    ``power_caps`` is the candidate cap grid its decisions draw from
    (``power_caps[-2]`` is the 92 %-of-TDP default cap the CLI documents).
    """

    key: SessionKey
    workflow: PaperWorkflow
    power_caps: tuple[float, ...]

    @property
    def default_power_cap_w(self) -> float:
        """The Problem 1 cap used when a request does not pin one."""
        return self.power_caps[-2]


@dataclass
# repro: allow[RL005] observability counters mutate in place by design;
# they are never serialized as an API payload (as_dict() is a snapshot)
class ServiceStats:
    """Observability counters of one :class:`PlannerService` instance."""

    sessions_built: int = 0
    session_reuses: int = 0
    trainings_run: int = 0
    models_loaded: int = 0
    decisions_served: int = 0
    batches_served: int = 0
    simulations_served: int = 0
    lints_served: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict snapshot (handy for logs and step summaries)."""
        return {
            "sessions_built": self.sessions_built,
            "session_reuses": self.session_reuses,
            "trainings_run": self.trainings_run,
            "models_loaded": self.models_loaded,
            "decisions_served": self.decisions_served,
            "batches_served": self.batches_served,
            "simulations_served": self.simulations_served,
            "lints_served": self.lints_served,
        }


class PlannerService:
    """Session-caching facade over offline training and online allocation.

    Parameters
    ----------
    model_dir:
        Optional directory for cross-process model persistence: sessions
        without an explicit per-request ``model_path`` store their trained
        coefficients under this directory at a fingerprint-derived path
        (see :func:`repro.core.modelstore.cache_path_for`), so a second
        process — or a second :class:`PlannerService` — configured the
        same way loads instead of retraining.
    """

    def __init__(self, model_dir: str | Path | None = None) -> None:
        self._model_dir = (
            Path(model_dir).expanduser() if model_dir is not None else None
        )
        self._sessions: dict[SessionKey, PlannerSession] = {}
        self.stats = ServiceStats()

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    @staticmethod
    def session_key(
        spec: str, group_size: int, model_path: str | None = None
    ) -> SessionKey:
        """The session identity serving ``group_size`` groups on ``spec``.

        A100 pairs ride the paper's Table 5 grid; every other combination
        (N-way groups, non-A100 specs) needs the spec-derived grid, whose
        coefficients cover all group sizes at once — which is why the key
        folds the group size down to a grid choice instead of keeping it.
        """
        spec_by_name(spec)  # validate the name before it becomes a key
        grid = TABLE5_GRID if (spec == "a100" and group_size == 2) else GENERAL_GRID
        return SessionKey(
            spec=spec, grid=grid, model_path=str(model_path) if model_path else None
        )

    def session_for(
        self, spec: str, group_size: int, model_path: str | None = None
    ) -> PlannerSession:
        """The (cached) trained session serving ``group_size`` groups on ``spec``.

        The first call per key pays offline training (or a model-store
        load); every later call returns the same hot session, so repeated
        decisions never retrain or rebuild the allocator.
        """
        key = self.session_key(spec, group_size, model_path)
        session = self._sessions.get(key)
        if session is not None:
            self.stats.session_reuses += 1
            return session
        session = self._build_session(key)
        self._sessions[key] = session
        return session

    def _build_session(self, key: SessionKey) -> PlannerSession:
        spec = spec_by_name(key.spec)
        caps = power_caps_for_spec(spec)
        if key.grid == GENERAL_GRID:
            # N-way groups and non-A100 specs need coefficients for the
            # whole instance-size grid, not just the S1-S4 keys of Table 5.
            workflow = PaperWorkflow(
                simulator=PerformanceSimulator(spec), plan=TrainingPlan.for_spec(spec)
            )
        else:
            workflow = PaperWorkflow()
        path = self._model_path_for(key, workflow, caps)
        if path is None:
            workflow.train()
            self.stats.trainings_run += 1
        else:
            loaded_from_cache = path.exists()
            workflow.train_or_load(str(path))
            if loaded_from_cache:
                self.stats.models_loaded += 1
            else:
                self.stats.trainings_run += 1
        self.stats.sessions_built += 1
        return PlannerSession(key=key, workflow=workflow, power_caps=caps)

    def _model_path_for(
        self,
        key: SessionKey,
        workflow: PaperWorkflow,
        power_caps: tuple[float, ...],
    ) -> Path | None:
        if key.model_path is not None:
            return Path(key.model_path)
        if self._model_dir is None:
            return None
        fingerprint = ModelFingerprint.for_workflow(
            workflow.simulator.spec, power_caps, plan=workflow.offline.plan
        )
        return cache_path_for(self._model_dir, fingerprint)

    @property
    def sessions(self) -> Mapping[SessionKey, PlannerSession]:
        """Read-only view of the live sessions (for tests and dashboards)."""
        return dict(self._sessions)

    # ------------------------------------------------------------------
    # Decide
    # ------------------------------------------------------------------
    def decide(self, request: DecisionRequest) -> DecisionResult:
        """Solve one allocation request, reusing the session cache."""
        session = self.session_for(request.spec, request.group_size, request.model_path)
        decision = self._solve(session, request)
        self.stats.decisions_served += 1
        return DecisionResult.from_decision(
            decision, apps=request.apps, spec=request.spec
        )

    def decide_batch(
        self, requests: Iterable[DecisionRequest]
    ) -> tuple[DecisionResult, ...]:
        """Solve many allocation requests in one call.

        Sessions are shared across the batch (each distinct
        ``(spec, grid, model path)`` trains at most once), every unique
        request is decided once through :meth:`decide` (a grid of more
        than 24 candidates, such as every N-way group's, from the
        allocator's candidate table; the paper's 24-point pair grid and
        smaller ones candidate by candidate), and exact duplicates
        within the batch are answered once and fanned back out in order
        (they still count as served decisions).
        """
        memo: dict[DecisionRequest, DecisionResult] = {}
        results = []
        for request in requests:
            result = memo.get(request)
            if result is None:
                result = memo[request] = self.decide(request)
            else:
                self.stats.decisions_served += 1
            results.append(result)
        self.stats.batches_served += 1
        return tuple(results)

    def _solve(
        self, session: PlannerSession, request: DecisionRequest
    ) -> AllocationDecision:
        if request.policy == "problem1":
            power_cap = (
                request.power_cap_w
                if request.power_cap_w is not None
                else session.default_power_cap_w
            )
            return session.workflow.decide_problem1(
                list(request.apps), power_cap, request.alpha
            )
        return session.workflow.decide_problem2(list(request.apps), request.alpha)

    # ------------------------------------------------------------------
    # Simulate
    # ------------------------------------------------------------------
    def simulate(self, request: SimulationRequest) -> SimulationResult:
        """Replay a (recorded or synthetic) trace through the cluster simulator."""
        from repro.traces import bursty_trace, load_trace, poisson_trace, save_trace

        if request.trace_path is not None:
            trace = load_trace(request.trace_path)
        else:
            # Without a trace file the request has filled every unset knob.
            assert request.arrival_rate_per_s is not None and request.duration_s is not None
            assert request.mix is not None and request.seed is not None
            if request.burst_size is not None:
                trace = bursty_trace(
                    burst_rate_per_s=request.arrival_rate_per_s / request.burst_size,
                    mean_burst_size=request.burst_size,
                    duration_s=request.duration_s,
                    n_jobs=request.n_jobs,
                    seed=request.seed,
                    mix=mix_by_name(request.mix),
                )
            else:
                trace = poisson_trace(
                    arrival_rate_per_s=request.arrival_rate_per_s,
                    duration_s=request.duration_s,
                    n_jobs=request.n_jobs,
                    seed=request.seed,
                    mix=mix_by_name(request.mix),
                )
        if request.save_trace_path is not None:
            save_trace(trace, request.save_trace_path)
        return self.simulate_trace(trace, request)

    def simulate_trace(
        self, trace: Trace, request: SimulationRequest
    ) -> SimulationResult:
        """Replay an in-memory :class:`Trace` with ``request``'s scheduling knobs.

        The trace-source fields of ``request`` (``trace_path``, arrival
        rate, mix, ...) are ignored; this is the embedding-friendly variant
        for traces built programmatically.
        """
        from repro.cluster.events import ClusterSimulator, SimulationConfig
        from repro.cluster.scheduler import SchedulerConfig

        session = self.session_for(request.spec, request.group_size, request.model_path)
        power_cap = (
            request.power_cap_w
            if request.power_cap_w is not None
            else session.default_power_cap_w
        )
        scheduler_config = SchedulerConfig(
            window_size=request.window_size,
            group_size=request.group_size,
            policy_name=request.policy,
            power_cap_w=power_cap,
            alpha=request.alpha,
        )
        simulator = ClusterSimulator.from_allocator(
            session.workflow.online,
            session.workflow.simulator,
            n_nodes=request.n_nodes,
            scheduler_config=scheduler_config,
            config=SimulationConfig(
                repartition_latency_s=request.repartition_latency_s,
                power_budget_w=request.power_budget_w,
            ),
        )
        report = simulator.run(trace, suite=session.workflow.suite)
        self.stats.simulations_served += 1
        return SimulationResult.from_report(
            report, trace_summary=trace.summary(), spec=request.spec
        )

    # ------------------------------------------------------------------
    # States
    # ------------------------------------------------------------------
    def states(self, request: StatesRequest) -> StatesResult:
        """Enumerate the realizable partition states (no training involved)."""
        spec = spec_by_name(request.spec)
        states = tuple(enumerate_partition_states(request.n_apps, spec))
        return StatesResult(
            spec=request.spec,
            spec_description=spec.name,
            n_apps=request.n_apps,
            states=tuple(PartitionStateRow.from_state(state, spec) for state in states),
        )

    # ------------------------------------------------------------------
    # Lint
    # ------------------------------------------------------------------
    def lint(self, request: LintRequest) -> LintResult:
        """Run the invariant analyzer (no training or session involved)."""
        from repro.lint.analyzer import analyze_paths

        report = analyze_paths(request.paths, select=request.select)
        self.stats.lints_served += 1
        return LintResult.from_report(report, strict=request.strict)
