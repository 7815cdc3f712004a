"""The co-scheduler: group selection, profile runs, and dispatch.

The scheduler pulls the head job from the queue, searches a bounded
look-ahead window for the co-location partner that maximizes the predicted
objective, asks the Resource & Power Allocator for the partition state and
power cap, and dispatches the group to a free node.  When ``group_size``
allows more than two jobs the pair is greedily extended with further window
jobs for as long as doing so improves the predicted objective.  Jobs whose
application has never been profiled run exclusively first (the paper's
profile-run rule).

Planning is memoized: the plan depends only on the *content* of the
look-ahead window (application names and their profiled status) and on the
trained model, so an LRU cache keyed on that signature answers repeated
window shapes — ubiquitous in a long trace over a bounded application set —
without re-evaluating the candidate grid.  Cached plans store window
*positions* rather than job objects, so a hit is rebuilt against the live
queue; the key is the window's content, so queue mutations need no
explicit invalidation.  On a plan miss every group the window offers is
looked up in the allocator's one decision memo
(:meth:`OnlineAllocator.decide`), which also remembers infeasible groups,
so the scheduler keeps no decisions of its own.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

from repro.cluster.job import Job, JobState
from repro.cluster.node import ComputeNode
from repro.cluster.queue import JobQueue
from repro.config import check_count
from repro.core.decision import AllocationDecision
from repro.core.policies import POLICY_NAMES, Policy, make_policy
from repro.core.workflow import OnlineAllocator
from repro.errors import ConfigurationError, InfeasibleProblemError, SchedulingError
from repro.sim.results import CoRunResult

#: Capacity of :meth:`CoScheduler.plan_next`'s LRU plan memo.
_PLAN_MEMO_SIZE = 8192


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the co-scheduler.

    Attributes
    ----------
    window_size:
        How many queued jobs may be inspected when looking for partners
        (an integer >= 1).
    group_size:
        Maximum number of jobs co-located on one GPU (an integer >= 1; 2
        reproduces the paper's pair scheduling exactly; larger values
        enable N-way groups when the allocator's model supports them).
    policy_name:
        ``"problem1"`` (throughput at a fixed cap) or ``"problem2"``
        (energy efficiency, cap chosen per group).
    power_cap_w:
        The fixed cap used by Problem 1.
    alpha:
        Fairness threshold for either policy.

    A job with no feasible partner in the window runs alone (the plan's
    reason is ``"no feasible partner"``).
    """

    window_size: int = 4
    group_size: int = 2
    policy_name: str = "problem2"
    power_cap_w: float = 230.0
    alpha: float = 0.2

    def __post_init__(self) -> None:
        for name in ("window_size", "group_size"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))
        if self.policy_name.lower() not in POLICY_NAMES:
            raise ConfigurationError(
                f"unknown policy {self.policy_name!r}; valid names: {POLICY_NAMES}"
            )
        # Written so that NaN fails the test.
        if not 0 < self.power_cap_w < math.inf:
            raise ConfigurationError(
                f"power_cap_w must be finite and positive, got {self.power_cap_w}"
            )
        if not (0.0 <= self.alpha < 1.0):
            raise ConfigurationError(f"alpha must be in [0, 1), got {self.alpha}")


@dataclass(frozen=True)
class DispatchPlan:
    """What the scheduler decided to run next."""

    jobs: tuple[Job, ...]
    decision: AllocationDecision | None
    reason: str


@dataclass(frozen=True)
class _CachedPlan:
    """A memoized planning outcome, stored by window position.

    ``positions`` indexes into the look-ahead window the plan was computed
    for; rebuilding against the live window re-binds the (frozen) decision
    and reason to the job objects currently occupying those positions.
    """

    positions: tuple[int, ...]
    decision: AllocationDecision | None
    reason: str

    def rebuild(self, window: tuple[Job, ...]) -> DispatchPlan:
        return DispatchPlan(
            jobs=tuple(window[i] for i in self.positions),
            decision=self.decision,
            reason=self.reason,
        )


@dataclass
class SchedulerStats:
    """Planning/dispatch counters of one :class:`CoScheduler` instance.

    ``plans_requested`` counts every :meth:`CoScheduler.plan_next` call (the
    "decisions" of the benchmark trajectory); ``plans_computed`` the subset
    that evaluated the candidate grid; ``plan_cache_hits`` the subset
    answered from the memo; ``dispatches`` executed plans.
    """

    plans_requested: int = 0
    plans_computed: int = 0
    plan_cache_hits: int = 0
    dispatches: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict snapshot (handy for logs and benchmark artifacts)."""
        return {
            "plans_requested": self.plans_requested,
            "plans_computed": self.plans_computed,
            "plan_cache_hits": self.plan_cache_hits,
            "dispatches": self.dispatches,
        }


class CoScheduler:
    """Group selection and dispatch driven by the allocator's predictions."""

    def __init__(
        self,
        allocator: OnlineAllocator,
        config: SchedulerConfig | None = None,
    ) -> None:
        self._allocator = allocator
        self._config = config if config is not None else SchedulerConfig()
        # Plans by window signature and model version, LRU-ordered.
        self._plans: OrderedDict[tuple, _CachedPlan] = OrderedDict()
        self._policy_cache: Policy | None = None
        self.stats = SchedulerStats()

    def _validate_policy_against_model(self) -> None:
        """Fail loudly when the configured policy caps are off the model's grid.

        Otherwise every decide() call would raise InfeasibleProblemError,
        which plan_next treats as "this candidate is infeasible" — the
        cluster would silently never co-schedule anything.  Runs per
        plan_next (cheap: the state lookup is cached), not at construction,
        so a scheduler may be wired up before its model is trained.
        """
        if self._config.group_size < 2:
            return  # co-location disabled; the cap is never used
        policy = self._policy()
        caps = policy.candidate_power_caps()
        if self._allocator.candidate_states_for(2, caps):
            return
        model = self._allocator.allocator.model
        if not model.fitted_scalability_states():
            raise ConfigurationError(
                "the allocator's model has no fitted coefficients; train it "
                "before scheduling"
            )
        raise ConfigurationError(
            f"policy {policy.name}: no fitted model coefficients for power "
            f"cap(s) {tuple(float(p) for p in caps)} W; the allocator's "
            f"trained grid is {self._allocator.allocator.power_caps}"
        )

    @property
    def config(self) -> SchedulerConfig:
        """The scheduler configuration."""
        return self._config

    @property
    def max_group_size(self) -> int:
        """The largest group :meth:`plan_next` forms.

        ``group_size``, clamped to the spec's partition-scheme co-location
        ceiling (a configuration tuned for one vendor never asks another
        for more instances than its scheme can realize) and to the sizes
        the allocator's model serves: from 3 up, a size counts only if it
        and every size below it have a candidate state at the policy's
        caps.  A pair-trained model therefore keeps groups at pairs.  The
        state lookups are cached, so this costs dictionary hits.
        """
        spec = self._allocator.allocator.model.spec
        limit = min(self._config.group_size, spec.scheme.max_co_located(spec))
        size = min(limit, 2)
        caps = self._policy().candidate_power_caps()
        while size < limit and self._allocator.candidate_states_for(size + 1, caps):
            size += 1
        return size

    # ------------------------------------------------------------------
    def _policy(self) -> Policy:
        # Problem 2 may only choose caps the allocator's model was trained
        # for, so follow the allocator's grid instead of the global default.
        # Policies are frozen and the allocator's grid never changes, so
        # one instance serves every plan.
        if self._policy_cache is None:
            self._policy_cache = make_policy(
                self._config.policy_name,
                self._config.alpha,
                power_cap_w=self._config.power_cap_w,
                power_caps=self._allocator.allocator.power_caps,
            )
        return self._policy_cache

    def _is_profiled(self, job: Job) -> bool:
        return self._allocator.database.has(job.name)

    # ------------------------------------------------------------------
    def plan_next(self, queue: JobQueue) -> DispatchPlan:
        """Decide what to dispatch next from ``queue`` (without removing jobs).

        The returned plan contains either:

        * a single unprofiled job (profile run),
        * a co-location group (pair, greedily grown up to ``group_size``)
          plus the allocator's decision,
        * or a single job to run alone when grouping is impossible.

        Planning is memoized on the look-ahead window's content signature
        (names + profiled status) and the model version; repeated window
        shapes skip the candidate-grid evaluation entirely.
        """
        if queue.empty:
            raise SchedulingError("cannot plan: the job queue is empty")
        self.stats.plans_requested += 1
        window = queue.window(self._config.window_size)
        has_profile = self._allocator.database.has
        signature = tuple((job.name, has_profile(job.name)) for job in window)
        key = (signature, self._allocator.allocator.model.coefficients_version)
        memo = self._plans
        cached = memo.get(key)
        if cached is None:
            cached = memo[key] = self._compute_plan(window)
            if len(memo) > _PLAN_MEMO_SIZE:
                memo.popitem(last=False)
            self.stats.plans_computed += 1
        else:
            memo.move_to_end(key)
            self.stats.plan_cache_hits += 1
        return cached.rebuild(window)

    def _compute_plan(self, window: tuple[Job, ...]) -> _CachedPlan:
        """Evaluate the candidate grid for one window shape (cache miss path)."""
        self._validate_policy_against_model()
        head = window[0]
        if not self._is_profiled(head):
            return _CachedPlan(positions=(0,), decision=None, reason="profile run")
        if self._config.group_size == 1:
            # One job per GPU: co-location is disabled by configuration.
            return _CachedPlan(
                positions=(0,), decision=None, reason="exclusive run (group_size=1)"
            )

        has_profile = self._allocator.database.has
        candidates = [
            (position, job)
            for position, job in enumerate(window)
            if position > 0 and has_profile(job.name)
        ]
        plan = self._grow_group(window, candidates)
        if plan is not None:
            return plan
        return _CachedPlan(positions=(0,), decision=None, reason="no feasible partner")

    def _grow_group(
        self, window: tuple[Job, ...], candidates: list[tuple[int, Job]]
    ) -> _CachedPlan | None:
        """Grow a group from the head job, one window job per round.

        Each round tries every remaining profiled window job as the next
        member and keeps the best strictly-improving extension; the first
        round starts from the head alone at objective −inf, so it picks
        the best feasible partner.  The loop stops at :attr:`max_group_size`
        members (asked only once a pair exists and ``group_size`` allows
        more) or when no extension helps — the heuristic search over group
        composition the paper's Section 6 calls for; the state/cap inside
        each trial is still solved exactly by the allocator.  Returns
        ``None`` when the head has no feasible partner.
        """
        policy = self._policy()
        plan: _CachedPlan | None = None
        positions: tuple[int, ...] = (0,)
        objective = float("-inf")
        max_members = 2
        while len(positions) < max_members:
            best: _CachedPlan | None = None
            for position, candidate in candidates:
                if position in positions:
                    continue
                names = [window[i].name for i in positions] + [candidate.name]
                try:
                    decision = self._allocator.decide(names, policy)
                except InfeasibleProblemError:
                    continue
                if decision.predicted_objective > objective:
                    objective = decision.predicted_objective
                    size = len(names)
                    best = _CachedPlan(
                        positions=positions + (position,),
                        decision=decision,
                        reason=(
                            f"co-schedule via {policy.name}"
                            if size == 2
                            else f"co-schedule {size} jobs via {policy.name}"
                        ),
                    )
            if best is None:
                break
            plan = best
            positions = best.positions
            if len(positions) == 2 and self._config.group_size > 2:
                max_members = self.max_group_size
        return plan

    # ------------------------------------------------------------------
    def dispatch(
        self,
        plan: DispatchPlan,
        queue: JobQueue,
        node: ComputeNode,
        time: float,
    ) -> tuple[float, CoRunResult | None]:
        """Execute a plan on ``node`` starting at ``time``.

        The jobs are removed from the queue, their lifecycle updated, and the
        node's busy window extended.  Returns the finish time and the
        :class:`CoRunResult` of a co-located plan; the result is ``None``
        for an exclusive or profile run, which runs through the
        reference-time path and produces no power record.
        """
        if not node.is_free(time):
            raise SchedulingError(
                f"node {node.node_id} is busy until t={node.busy_until:.2f}"
            )
        self.stats.dispatches += 1
        for job in plan.jobs:
            queue.remove(job)
            job.start_time = time

        result: CoRunResult | None = None
        if plan.decision is None:
            job = plan.jobs[0]
            if not self._is_profiled(job):
                job.transition(JobState.PROFILING)
                self._allocator.ensure_profiled(job.kernel)
            else:
                job.transition(JobState.RUNNING)
            runtime = node.execute_exclusive(job.kernel)
            finish = time + runtime
            job.finish_time = finish
            job.transition(JobState.COMPLETED)
        else:
            decision = plan.decision
            kernels = [job.kernel for job in plan.jobs]
            result = node.execute_group(kernels, decision.state, decision.power_cap_w)
            finish = time
            for job, run in zip(plan.jobs, result.per_app):
                job.transition(JobState.RUNNING)
                job.co_runners = tuple(j.job_id for j in plan.jobs if j is not job)
                job.finish_time = time + run.elapsed_s
                job.transition(JobState.COMPLETED)
                finish = max(finish, job.finish_time)
        node.busy_until = finish
        return finish, result
