"""The event-driven cluster simulator: online arrivals over the co-scheduler.

This module holds the cluster's one dispatch loop.  It replays a
:class:`repro.traces.Trace` through a discrete-event loop: jobs enter the
queue at their arrival times, dispatch decisions come from the
:class:`CoScheduler` (and through it the batched :class:`OnlineAllocator`),
MIG reconfigurations incur a configurable latency before the new partition
layout serves jobs, and a cluster-wide power budget, one
:class:`ClusterPowerManager` per run, is re-split after every event batch
that changed a node's demand.  A batch drain is
the all-at-t=0 trace (:meth:`Trace.all_at_zero`), and the exclusive
baseline is that replay under ``SchedulerConfig(group_size=1)``; both match
a first-free-node reference loop in the tests (parity-tested).
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field, replace

from repro.cluster.events.events import ArrivalEvent, CompletionEvent, Event, EventHeap
from repro.cluster.events.report import LatencyStats, SimulationReport
from repro.cluster.job import Job
from repro.cluster.node import ComputeNode
from repro.cluster.powerbudget import ClusterPowerManager
from repro.cluster.queue import JobQueue
from repro.cluster.scheduler import CoScheduler, DispatchPlan, SchedulerConfig
from repro.config import check_count
from repro.core.workflow import OnlineAllocator, PaperWorkflow
from repro.errors import ConfigurationError, SimulationError
from repro.gpu.mig import PartitionState
from repro.gpu.spec import GPUSpec
from repro.sim.engine import PerformanceSimulator
from repro.sim.results import CoRunResult
from repro.traces.trace import Trace
from repro.workloads.suite import BenchmarkSuite

#: Layout signature for exclusive (full-GPU, MIG-less) dispatches: no GPU
#: Instances exist, MIG mode is off.
_EXCLUSIVE_LAYOUT: tuple[int, ...] = ()


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of the event-driven simulation (on top of the scheduler's).

    Attributes
    ----------
    repartition_latency_s:
        Latency per GPU Instance created or destroyed when a node's MIG
        layout changes (plus one unit when MIG mode itself is toggled for
        an exclusive full-GPU dispatch).  A dispatch starts late by this
        value times the size of the GI diff between the layout the node
        last served and the new one; layouts sharing their whole GI
        multiset (e.g. S1 -> S2, which only re-binds jobs to existing
        instances) reconfigure for free, which is how jobs on untouched
        instances keep running through a reconfiguration.  0 (the default)
        makes every reconfiguration free.
    power_budget_w:
        Cluster-wide GPU power budget.  Each run splits it across the nodes
        by their demands through its own :class:`ClusterPowerManager`, and
        clamps every co-located plan's cap to its node's share.  ``None``
        (the default) leaves every node free to use the cap its allocation
        decision asked for.
    """

    repartition_latency_s: float = 0.0
    power_budget_w: float | None = None

    def __post_init__(self) -> None:
        # Written so that NaN fails every test.
        if not 0 <= self.repartition_latency_s < math.inf:
            raise ConfigurationError(
                "repartition_latency_s must be finite and >= 0, "
                f"got {self.repartition_latency_s}"
            )
        if self.power_budget_w is not None and not 0 < self.power_budget_w < math.inf:
            raise ConfigurationError(
                f"power_budget_w must be finite and positive, got {self.power_budget_w}"
            )

    def check_budget(self, n_nodes: int, spec: GPUSpec) -> None:
        """Fail unless the budget covers ``n_nodes`` nodes at the minimum cap."""
        minimum = spec.min_power_cap_w * n_nodes
        if self.power_budget_w is not None and self.power_budget_w < minimum:
            raise ConfigurationError(
                f"power budget {self.power_budget_w} W cannot cover "
                f"{n_nodes} nodes at the minimum cap "
                f"({spec.min_power_cap_w} W each)"
            )


@dataclass
class _RunState:
    """Mutable bookkeeping of one :meth:`ClusterSimulator.run` call."""

    queue: JobQueue
    #: The run's power budget; ``None`` unless one is configured.
    budget: ClusterPowerManager | None
    heap: EventHeap = field(default_factory=EventHeap)
    #: Time of the event batch being handled, in seconds.
    now: float = 0.0
    completed: list[Job] = field(default_factory=list)
    layouts: dict[int, tuple[int, ...]] = field(default_factory=dict)
    #: Min-heap of *positions* into the node list that are currently free.
    #: Maintained incrementally (popped at dispatch, pushed at completion)
    #: so dispatch cost scales with the number of free nodes, not fleet
    #: size; position order reproduces the original node-list scan order.
    free_nodes: list[int] = field(default_factory=list)
    #: Solo full-partition chip power per application name; names resolve
    #: to kernels per run, so the memo lives exactly as long as the run.
    solo_power_w: dict[str, float] = field(default_factory=dict)
    events_popped: int = 0
    service_time_s: float = 0.0
    energy_j: float = 0.0
    repartitions: int = 0
    repartition_time_s: float = 0.0
    instance_changes: int = 0
    rebalances: int = 0
    profile_runs: int = 0
    peak_queue_length: int = 0


class ClusterSimulator:
    """Drive the co-scheduler and the nodes from an event loop.

    Under a :attr:`SimulationConfig.power_budget_w`, each :meth:`run`
    builds a :class:`ClusterPowerManager` for the nodes and reaches the
    budget only through it: a dispatch requests its node's cap, a
    completion releases it, every event batch rebalances, and a
    co-located plan's cap is clamped to its node's share.
    """

    def __init__(
        self,
        allocator: OnlineAllocator,
        nodes: list[ComputeNode],
        scheduler_config: SchedulerConfig | None = None,
        config: SimulationConfig | None = None,
    ) -> None:
        if not nodes:
            raise ConfigurationError("the cluster needs at least one node")
        self._nodes = list(nodes)
        self._scheduler = CoScheduler(allocator, scheduler_config)
        self._config = config if config is not None else SimulationConfig()
        spec = self._nodes[0].spec
        self._spec = spec
        self._config.check_budget(len(self._nodes), spec)
        self._layout_cache: dict[PartitionState, tuple[int, ...]] = {}
        self._node_ids = [node.node_id for node in self._nodes]
        self._node_position = {
            node.node_id: position for position, node in enumerate(self._nodes)
        }
        if len(self._node_position) != len(self._nodes):
            raise ConfigurationError("node ids must be unique within a cluster")

    # ------------------------------------------------------------------
    @classmethod
    def from_allocator(
        cls,
        allocator: OnlineAllocator,
        simulator: PerformanceSimulator,
        n_nodes: int = 1,
        scheduler_config: SchedulerConfig | None = None,
        config: SimulationConfig | None = None,
    ) -> "ClusterSimulator":
        """Build a cluster of ``n_nodes`` nodes (an integer >= 1) sharing
        ``simulator``'s spec.

        This is the service-layer construction path: it needs only the two
        online objects (a trained allocator and the performance simulator
        backing the nodes), not a :class:`PaperWorkflow`.
        """
        nodes = [
            ComputeNode(node_id=i, spec=simulator.spec, simulator=simulator)
            for i in range(check_count("n_nodes", n_nodes))
        ]
        return cls(
            allocator=allocator,
            nodes=nodes,
            scheduler_config=scheduler_config,
            config=config,
        )

    @classmethod
    def from_workflow(
        cls,
        workflow: PaperWorkflow,
        n_nodes: int = 1,
        scheduler_config: SchedulerConfig | None = None,
        config: SimulationConfig | None = None,
    ) -> "ClusterSimulator":
        """Build a simulator whose nodes share the workflow's simulator/spec."""
        return cls.from_allocator(
            workflow.online,
            workflow.simulator,
            n_nodes=n_nodes,
            scheduler_config=scheduler_config,
            config=config,
        )

    @property
    def config(self) -> SimulationConfig:
        """The simulation configuration."""
        return self._config

    @property
    def scheduler(self) -> CoScheduler:
        """The co-scheduler making the dispatch decisions."""
        return self._scheduler

    @property
    def nodes(self) -> tuple[ComputeNode, ...]:
        """The compute nodes of the cluster."""
        return tuple(self._nodes)

    # ------------------------------------------------------------------
    def run(self, trace: Trace, suite: BenchmarkSuite | None = None) -> SimulationReport:
        """Replay ``trace`` through the event loop and report online metrics."""
        if trace.n_jobs == 0:
            raise SimulationError("cannot simulate an empty trace")
        kernels = trace.resolve_kernels(suite)
        for node in self._nodes:
            node.reset()
        budget_w = self._config.power_budget_w
        budget = (
            None
            if budget_w is None
            else ClusterPowerManager(self._spec, self._node_ids, budget_w)
        )
        state = _RunState(queue=JobQueue(), budget=budget)
        # Ascending positions form a valid min-heap as-is.
        state.free_nodes = list(range(len(self._nodes)))
        state.heap.push_many(
            ArrivalEvent(time=entry.arrival_time_s, kernel=kernel)
            for entry, kernel in zip(trace.entries, kernels)
        )

        while not state.heap.empty:
            batch = state.heap.pop_batch()
            state.now = batch[0].time
            state.events_popped += len(batch)
            for event in batch:
                self._handle(event, state)
            if budget is not None:
                # Every batch counts as a rebalance; the manager re-splits
                # only when a demand was set since its last split.
                budget.rebalance()
                state.rebalances += 1
            self._dispatch_free_nodes(state)

        if not state.queue.empty:  # pragma: no cover - defensive
            raise SimulationError(
                f"event heap drained with {len(state.queue)} jobs still queued"
            )
        return self._report(trace, state)

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def _handle(self, event: Event, state: _RunState) -> None:
        if isinstance(event, ArrivalEvent):
            state.queue.submit(event.kernel, submit_time=event.time)
            state.peak_queue_length = max(state.peak_queue_length, len(state.queue))
        elif isinstance(event, CompletionEvent):
            state.completed.extend(event.jobs)
            position = self._node_position[event.node_id]
            heapq.heappush(state.free_nodes, position)
            if state.budget is not None:
                state.budget.release(position)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unhandled event {event!r}")

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_free_nodes(self, state: _RunState) -> None:
        now = state.now
        free_nodes = state.free_nodes
        budget = state.budget
        while free_nodes and not state.queue.empty:
            # Popping positions in ascending order reproduces the node-list
            # scan order of the original O(nodes) loop exactly.
            position = heapq.heappop(free_nodes)
            node = self._nodes[position]
            plan = self._scheduler.plan_next(state.queue)
            if budget is not None and plan.decision is not None:
                cap = budget.cap_for(node.node_id, plan.decision.power_cap_w)
                if cap != plan.decision.power_cap_w:
                    plan = replace(plan, decision=replace(plan.decision, power_cap_w=cap))
            start = now + self._repartition_delay(plan, node, state)
            if plan.reason == "profile run":
                state.profile_runs += 1
            finish, result = self._scheduler.dispatch(plan, state.queue, node, start)
            state.service_time_s += finish - start
            state.energy_j += self._dispatch_energy(
                plan, result, node, finish - start, state
            )
            state.heap.push(
                CompletionEvent(time=finish, node_id=node.node_id, jobs=plan.jobs)
            )
            if budget is not None:
                # A busy node demands the cap it stores for its last run.
                budget.request(position, node.power_limit_w)

    def _layout_signature(self, plan: DispatchPlan) -> tuple[int, ...]:
        """The sorted GI-size multiset the plan's dispatch requires (memoized)."""
        if plan.decision is None:
            return _EXCLUSIVE_LAYOUT
        partition = plan.decision.state
        layout = self._layout_cache.get(partition)
        if layout is None:
            layout = tuple(sorted(partition.gi_sizes(self._spec)))
            self._layout_cache[partition] = layout
        return layout

    @staticmethod
    def _instance_changes(
        previous: tuple[int, ...] | None, layout: tuple[int, ...]
    ) -> int:
        """GPU Instances to create/destroy to move ``previous`` -> ``layout``.

        ``None`` (a node's first dispatch) charges the full bring-up:
        every GI of the new layout, or one MIG-mode toggle for an
        exclusive dispatch.  Between two MIG layouts the cost is the
        multiset difference of their GI sizes — instances present in both
        layouts are untouched (jobs bound to them merely re-map to new
        Compute Instances, which is free), and switching MIG mode on or
        off adds one unit.
        """
        if previous == layout:
            return 0
        if previous is None:
            return max(1, len(layout))
        old, new = Counter(previous), Counter(layout)
        created = sum((new - old).values())
        destroyed = sum((old - new).values())
        mode_toggle = int((previous == _EXCLUSIVE_LAYOUT) != (layout == _EXCLUSIVE_LAYOUT))
        return created + destroyed + mode_toggle

    def _repartition_delay(
        self, plan: DispatchPlan, node: ComputeNode, state: _RunState
    ) -> float:
        """Latency charged before the plan's MIG layout can serve jobs.

        Scales with the number of GPU Instances the reconfiguration
        creates/destroys (see :meth:`_instance_changes`) instead of a flat
        per-change constant, so re-binding jobs onto an unchanged GI
        multiset is free and deeper re-partitions cost proportionally more.
        """
        if self._config.repartition_latency_s == 0.0:
            # Reconfiguration is free: skip the layout bookkeeping entirely
            # (nothing downstream reads it when no delays are charged).
            return 0.0
        layout = self._layout_signature(plan)
        previous = state.layouts.get(node.node_id)
        state.layouts[node.node_id] = layout
        changes = self._instance_changes(previous, layout)
        if changes == 0:
            return 0.0
        delay = self._config.repartition_latency_s * changes
        state.repartitions += 1
        state.instance_changes += changes
        state.repartition_time_s += delay
        return delay

    def _dispatch_energy(
        self,
        plan: DispatchPlan,
        result: CoRunResult | None,
        node: ComputeNode,
        duration_s: float,
        state: _RunState,
    ) -> float:
        """Modelled chip energy of one dispatch window in joules."""
        if result is not None:
            return result.chip_power_w * duration_s
        # Exclusive/profile runs execute through reference_time, which does
        # not expose power; approximate with the solo full-partition run's
        # chip power, memoized per kernel name for the run (it is
        # deterministic, and a long trace revisits the same applications
        # thousands of times).
        kernel = plan.jobs[0].kernel
        power = state.solo_power_w.get(kernel.name)
        if power is None:
            assert node.simulator is not None
            power = node.simulator.solo_run(kernel).chip_power_w
            state.solo_power_w[kernel.name] = power
        return power * duration_s

    # ------------------------------------------------------------------
    def _report(self, trace: Trace, state: _RunState) -> SimulationReport:
        jobs = tuple(state.completed)
        unfinished = [job.job_id for job in jobs if job.finish_time is None]
        if unfinished:  # pragma: no cover - defensive
            raise SimulationError(f"jobs did not finish: {unfinished}")
        makespan = max(job.finish_time for job in jobs)  # type: ignore[arg-type]
        if makespan <= 0:  # pragma: no cover - defensive
            raise SimulationError("the simulation produced a non-positive makespan")
        waits = [job.start_time - job.submit_time for job in jobs]  # type: ignore[operator]
        turnarounds = [job.turnaround_time for job in jobs]
        co_scheduled = sum(1 for job in jobs if job.co_runners)
        return SimulationReport(
            label=trace.label,
            jobs=jobs,
            n_nodes=len(self._nodes),
            makespan_s=float(makespan),
            sustained_throughput_jobs_per_s=len(jobs) / float(makespan),
            wait=LatencyStats.from_samples(waits),
            turnaround=LatencyStats.from_samples(turnarounds),
            utilization=state.service_time_s / (len(self._nodes) * float(makespan)),
            energy_wh=state.energy_j / 3600.0,
            co_scheduled_jobs=co_scheduled,
            exclusive_jobs=len(jobs) - co_scheduled,
            profile_runs=state.profile_runs,
            events_processed=state.events_popped + state.repartitions + state.rebalances,
            repartitions=state.repartitions,
            repartition_time_s=state.repartition_time_s,
            mig_instance_changes=state.instance_changes,
            power_rebalances=state.rebalances,
            final_power_allocation_w=(
                {} if state.budget is None else dict(state.budget.shares)
            ),
            peak_queue_length=state.peak_queue_length,
            max_group_size=self._scheduler.max_group_size,
        )
