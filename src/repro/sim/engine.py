"""The execution engine: solo runs, co-runs, reference runs, profiling.

:class:`PerformanceSimulator` combines the other pieces of the substrate:

* the **roofline** composition scales a kernel's time components to its
  allocation (GPCs, memory slices) and to the current clock;
* the **interference model** adds LLC pollution between Compute Instances
  that share a GPU Instance (shared option), and the pool fixed point
  below arbitrates their HBM bandwidth;
* the **power model** plays the role of the driver's power-cap governor and
  throttles the chip clock until the modelled power fits under the cap;
* the **noise model** perturbs the final elapsed time the way real
  measurements wobble.

The simulator self-consistently resolves the circular dependencies between
these pieces (bandwidth shares depend on elapsed times, elapsed times depend
on the clock, the clock depends on utilizations, utilizations depend on
elapsed times) with a small fixed-point iteration nested inside the
governor's bisection.

Two memos answer repeated questions.  The run memo returns the result of a
(group, state, cap) seen before, which also skips the noise draws and the
result records.  Below it, each (group, state) — its *shape* — keeps its
solve tables (everything the fixed point reads before the clock enters,
built once from placements validated once against the state), its power
curve (the chip power at every clock the governor has evaluated on it)
and the solved times at the clocks the governor selected.  Under a
drifting cap the run memo misses, but the governor bisects through the
same clocks, so it reads their power from the curve.  Only a clock the
shape has never seen runs the fixed point, a scalar loop over the
tables, and is priced straight from its solved times.  The governor's
path is unchanged, and every compared value and result field is a pure
function of (placements, clock, powered GPCs), so each result is
bit-identical to a fresh solve.  Shapes are keyed on the kernels'
signatures, which cover every kernel field the solve reads, and the
state's content, so equal kernel objects share a shape.  The curves hold
at most ``_CURVE_POINTS`` clock points in total; the least-recently-used
shape is forgotten first.

:meth:`PerformanceSimulator.co_run_batch` solves many runs at once for the
offline training sweeps: the runs of one group size stack their shapes'
tables (each pool with the pools of its member count) and go through the
governor and the fixed point as NumPy arrays, one row per run, with every
float operation in the scalar solve's order.  It returns each run's noisy
elapsed times and an RPerf column and builds a record only when read,
with :meth:`PerformanceSimulator.co_run`'s builder, so each result is
bit-identical to :meth:`PerformanceSimulator.co_run`'s.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import overload

import numpy as np

from repro.errors import SimulationError
from repro.gpu.mig import MemoryOption, PartitionState, solo_state
from repro.gpu.power import InstanceLoads, PowerModel
from repro.gpu.spec import A100_SPEC, GPUSpec
from repro.numerics import builtin_sum
from repro.sim.counters import CounterVector, collect_counters
from repro.sim.interference import InterferenceModel
from repro.sim.noise import NoiseModel
from repro.sim.results import CoRunResult, RunResult
from repro.sim.roofline import TimeComponents, bound_of
from repro.workloads.kernel import KernelCharacteristics

#: Iterations of the bandwidth-contention fixed point (damped; converges in
#: a handful of steps for small co-location groups).
_BANDWIDTH_ITERATIONS = 40

#: Damping factor of the fixed point (new = d*new + (1-d)*old).
_DAMPING = 0.6

#: Entries kept in the run-result memo (distinct (kernels, state, cap)
#: combinations; a bounded application mix stays far below this).
_RUN_CACHE_SIZE = 4096

#: Clock points remembered over every shape's power curve, checked after
#: each run; past it the least-recently-used shapes are forgotten.  Every
#: selected clock is a curve point, so this also bounds the solved
#: placements kept.  One shape stays well below it: its bisection
#: midpoints form one binary tree, 13 levels deep.
_CURVE_POINTS = 32768

#: One co-run request of :meth:`PerformanceSimulator.co_run_batch`.
RunRequest = tuple[Sequence[KernelCharacteristics], PartitionState, float | None]


@dataclass
class _Placement:
    """Internal description of one application's placement on the chip."""

    kernel: KernelCharacteristics
    gpcs: int
    #: Peak DRAM bandwidth reachable by this application, as a fraction of
    #: the full-chip bandwidth (its private slices, or its pool's capacity).
    bandwidth_capacity: float
    #: Identifier of the shared bandwidth pool (the GPU Instance) this
    #: application draws from, or ``None`` for a private placement.  Mixed
    #: partition states produce several independent pools.
    pool: int | None
    #: Interference penalties (>= 1); 1.0 for private/solo placements.
    compute_penalty: float = 1.0
    memory_penalty: float = 1.0


class _Shape:
    """One (group, state)'s solve tables and what the governor learnt on them.

    Everything the bandwidth fixed point reads before the clock enters is
    tabulated once, when the shape is built: one entry per application,
    each computed from its placement exactly as the scalar solve writes
    it.  Each value is a pure function of the placements and the clock, so
    the shape serves every run of its group and state, at any cap.
    """

    def __init__(
        self, placements: Sequence[_Placement], n_gpcs: int,
        prefixes: Sequence[str] = (), references: Sequence[float] = (),
    ) -> None:
        #: Chip power at every relative frequency the governor evaluated.
        self.power: dict[float, float] = {}
        #: Compute and memory times at every frequency the governor selected.
        self.solved: dict[float, tuple[list[float], list[float]]] = {}
        self.prefixes = prefixes
        self.scaled_compute = [p.kernel.compute_time_full_s * (n_gpcs / p.gpcs) for p in placements]
        self.compute_penalty = [p.compute_penalty for p in placements]
        # Memory time at full-chip bandwidth, including the pollution penalty.
        self.memory_full = [p.kernel.memory_time_full_s * p.memory_penalty for p in placements]
        # The fixed point's initial guess: everyone sees their full capacity.
        self.initial_memory = [
            (full / p.bandwidth_capacity if full > 0 else 0.0)
            for full, p in zip(self.memory_full, placements)
        ]
        self.serial = [p.kernel.serial_time_s for p in placements]
        #: What each application's result record reads: its name, serial
        #: time and reference time.
        self.apps = list(zip([p.kernel.name for p in placements], self.serial, references))
        self.capacity = [p.bandwidth_capacity for p in placements]
        self.gpcs = [p.gpcs for p in placements]
        self.cuda_fraction = [p.kernel.cuda_fraction for p in placements]
        self.tensor_fraction = [p.kernel.tensor_fraction for p in placements]
        members_of: dict[int, list[int]] = {}
        for index, placement in enumerate(placements):
            if placement.pool is not None:
                members_of.setdefault(placement.pool, []).append(index)
        #: The shared pools the fixed point iterates: each one's members,
        #: its capacity (the largest member capacity) and the members'
        #: ``memory_full``, ``serial`` and ``capacity`` entries.
        self.pools = [
            (
                members,
                max(self.capacity[i] for i in members),
                [self.memory_full[i] for i in members],
                [self.serial[i] for i in members],
                [self.capacity[i] for i in members],
            )
            for members in members_of.values()
            if len(members) > 1
        ]

    def solve(self, frequency: float) -> tuple[list[float], list[float]]:
        """Compute and memory times at ``frequency``, every pool settled."""
        compute = [c / frequency * p for c, p in zip(self.scaled_compute, self.compute_penalty)]
        memory = self.initial_memory.copy()
        self._settle(compute, memory)
        return compute, memory

    def _settle(self, compute: list[float], memory: list[float]) -> None:
        """Each pool's damped bandwidth fixed point; settles ``memory`` in place.

        Each member draws what the others leave of the pool, at least its
        proportional share, at most its own capacity, and its elapsed time
        is blended with the old one until no member moves.  Comparisons
        pick the operand the built-in ``max``/``min`` would, and the demands
        are totalled by the built-in ``sum`` in member order.  The update
        and the blend share one pass because the demands and their total
        are fixed for the step.
        """
        keep = 1.0 - _DAMPING
        for members, pool_capacity, memory_full, serial, capacity in self.pools:
            times = [compute[i] for i in members]
            settled = [memory[i] for i in members]
            elapsed = [(m if m > c else c) + s for c, m, s in zip(times, settled, serial)]
            span = range(len(members))
            for _ in range(_BANDWIDTH_ITERATIONS):
                demands = [full / e if e > 0 else 0.0 for full, e in zip(memory_full, elapsed)]
                # The built-in ``sum`` over Python floats, in member order;
                # from a float start it adds exactly as from the default 0.
                total = sum(demands, 0.0)
                converged = True
                for k in span:
                    e = elapsed[k]
                    full = memory_full[k]
                    if full <= 0:
                        new = e
                    else:
                        demand = demands[k]
                        proportional = (
                            pool_capacity * demand / total if total > 0 else pool_capacity
                        )
                        available = pool_capacity - (total - demand)
                        if proportional > available:
                            available = proportional
                        if capacity[k] < available:
                            available = capacity[k]
                        if 1e-6 > available:
                            available = 1e-6
                        m = settled[k] = full / available
                        c = times[k]
                        new = (m if m > c else c) + serial[k]
                    blended = _DAMPING * new + keep * e
                    if abs(blended - e) > 1e-9 * (1e-9 if 1e-9 > e else e):
                        converged = False
                    elapsed[k] = blended
                if converged:
                    break
            for i, m in zip(members, settled):
                memory[i] = m

    def loads(
        self, compute: list[float], memory: list[float]
    ) -> list[tuple[int, float, float, float]]:
        """Each application's :class:`~repro.gpu.power.InstanceLoad` fields, as a tuple."""
        loads = []
        for gpcs, c, m, s, full, cuda, tensor in zip(
            self.gpcs, compute, memory, self.serial, self.memory_full,
            self.cuda_fraction, self.tensor_fraction,
        ):
            if c < 0 or m < 0 or s < 0:
                # The record's own check names the negative component.
                TimeComponents(compute_s=c, memory_s=m, serial_s=s)
            elapsed = (m if m > c else c) + s
            dram = full / elapsed if elapsed > 0 else 0.0
            busy = 0.0 if elapsed <= 0 else c / elapsed
            busy = busy if busy < 1.0 else 1.0
            loads.append((gpcs, busy * cuda, busy * tensor, dram if dram < 1.0 else 1.0))
        return loads


@dataclass(eq=False, slots=True)
class _Run:
    """A solved run's measurements, kept apart from the engine; its record is built on read."""

    apps: list[tuple[str, float, float]]
    state: PartitionState
    cap: float
    times: tuple[list[float], list[float]]
    frequency: float
    chip_power: float
    measured: list[float]
    built: CoRunResult | None = None

    @property
    def relative_performances(self) -> tuple[float, ...]:
        return tuple([app[2] / t for app, t in zip(self.apps, self.measured)])

    def record(self) -> CoRunResult:
        """The run's one result record, built from its solved times on the first call."""
        if self.built is None:
            per_app = tuple([
                RunResult(
                    kernel_name=name, elapsed_s=measured,
                    relative_performance=reference / measured, chip_power_w=self.chip_power,
                    bound=bound_of(TimeComponents(compute_s=c, memory_s=m, serial_s=s)),
                )
                for (name, s, reference), c, m, measured in zip(
                    self.apps, *self.times, self.measured
                )
            ])
            self.built = CoRunResult(
                state=self.state, power_cap_w=self.cap, per_app=per_app,
                chip_power_w=self.chip_power, relative_frequency=self.frequency,
            )
        return self.built


class CoRunColumns(Sequence[CoRunResult]):
    """The results of :meth:`PerformanceSimulator.co_run_batch`, as columns.

    ``relative_performances`` holds each run's per-application RPerfs, in
    run order.  Reading a run builds its :class:`CoRunResult` once; the
    run memo hands that same object to later hits.
    """

    def __init__(self, runs: list[CoRunResult | _Run]) -> None:
        self._runs = runs
        self.relative_performances = [run.relative_performances for run in runs]

    def __len__(self) -> int:
        return len(self._runs)

    @overload
    def __getitem__(self, index: int) -> CoRunResult: ...

    @overload
    def __getitem__(self, index: slice) -> list[CoRunResult]: ...

    def __getitem__(self, index: int | slice) -> CoRunResult | list[CoRunResult]:
        if isinstance(index, slice):
            return [self[i] for i in range(len(self._runs))[index]]
        run = self._runs[index]
        return run.record() if isinstance(run, _Run) else run


class PerformanceSimulator:
    """Analytic executor for kernels on the simulated MIG/power-capped GPU.

    Parameters
    ----------
    spec:
        Hardware specification of the simulated GPU.  The calibrated
        :class:`~repro.sim.interference.InterferenceModel` (LLC pollution
        under the shared option) and the :class:`~repro.gpu.power.PowerModel`
        (chip power and power-cap governor) are built from it.
    noise:
        Measurement-noise model; pass ``NoiseModel(sigma=0.0)`` (or
        :func:`repro.sim.noise.no_noise`) for exact, repeatable numbers.
    """

    def __init__(
        self,
        spec: GPUSpec = A100_SPEC,
        noise: NoiseModel | None = None,
    ) -> None:
        self._spec = spec
        self._interference = InterferenceModel(spec=spec)
        self._noise = noise if noise is not None else NoiseModel()
        self._power = PowerModel(spec)
        self._reference_cache: dict[tuple, float] = {}
        # A batch leaves its runs unbuilt; a hit builds one in place.
        self._run_cache: OrderedDict[tuple, CoRunResult | _Run] = OrderedDict()
        # Shapes in LRU order and the clock points their curves hold.
        self._shapes: OrderedDict[tuple, _Shape] = OrderedDict()
        self._curve_points = 0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def spec(self) -> GPUSpec:
        """The hardware specification in use."""
        return self._spec

    @property
    def noise(self) -> NoiseModel:
        """The measurement-noise model in use."""
        return self._noise

    @property
    def power_model(self) -> PowerModel:
        """The power model / governor in use."""
        return self._power

    # ------------------------------------------------------------------
    # Profiling and reference runs
    # ------------------------------------------------------------------
    def profile(self, kernel: KernelCharacteristics) -> CounterVector:
        """Collect the Table 3 counters of a solo, full-GPU profile run."""
        return collect_counters(kernel, self._spec)

    def reference_time(self, kernel: KernelCharacteristics) -> float:
        """Elapsed time of the exclusive solo run used for normalization.

        The paper normalizes every relative performance to a solo run on the
        full GPU (MIG disabled) at the default power limit.  The value is
        noise free: it is the fixed denominator of every ``RPerf``.
        """
        key = kernel.signature
        cached = self._reference_cache.get(key)
        if cached is not None:
            return cached
        # The full chip powers all its GPCs where MIG runs power mig_gpcs,
        # so this solve gets a throwaway shape, never a remembered one.
        n_gpcs = self._spec.n_gpcs
        placement = _Placement(kernel=kernel, gpcs=n_gpcs, bandwidth_capacity=1.0, pool=None)
        shape = _Shape([placement], n_gpcs)
        (compute, memory), _, _ = self._govern(shape, self._spec.default_power_limit_w, n_gpcs)
        reference = max(compute[0], memory[0]) + shape.serial[0]
        self._reference_cache[key] = reference
        return reference

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def solo_run(
        self,
        kernel: KernelCharacteristics,
        state: PartitionState | None = None,
        power_cap_w: float | None = None,
    ) -> RunResult:
        """Execute ``kernel`` alone on a (possibly partitioned) GPU.

        ``state`` must describe a single application; it defaults to the full
        MIG partition (7 GPCs, private).  ``power_cap_w`` defaults to the
        device's factory limit.
        """
        if state is None:
            state = solo_state(self._spec.mig_gpcs, MemoryOption.PRIVATE)
        if state.n_apps != 1:
            raise SimulationError(
                f"solo_run needs a single-application state, got {state.describe()}"
            )
        result = self._run(state, (kernel,), power_cap_w)
        return result.per_app[0]

    def co_run(
        self,
        kernels: Sequence[KernelCharacteristics],
        state: PartitionState,
        power_cap_w: float | None = None,
    ) -> CoRunResult:
        """Co-execute a group of ``kernels`` under partition state ``state``.

        The group may have any size the state describes (N >= 1): solo runs
        and the paper's pairs are the N=1 and N=2 special cases, and mixed
        states with several shared GPU Instances are resolved with one
        bandwidth pool per instance.
        """
        _check_group(kernels, state)
        return self._run(state, tuple(kernels), power_cap_w)

    def co_run_batch(self, runs: Sequence[RunRequest]) -> CoRunColumns:
        """Co-execute many groups: ``[self.co_run(k, s, c) for k, s, c in runs]``.

        The results, and the run memo afterwards (its entries and their
        LRU order), are exactly what that scalar loop produces.  Runs the
        memo cannot answer are solved together: placements are built once
        per (group, state) rather than once per cap, and the runs of one
        group size go through the power-cap governor and the bandwidth
        fixed point in lockstep, one array row per run, with every float
        operation in the scalar solve's order.  The batch neither reads
        nor fills the remembered shapes and power curves of :meth:`co_run`;
        its placements live for the call.  The returned columns build a
        run's record only when it is read; a memo entry the batch leaves
        holds the run unbuilt until its first read (by index, or a later
        :meth:`co_run` hit) builds the record and puts it in the entry.
        This is the offline training sweeps' entry point; one-at-a-time
        callers (the event loop) should keep calling :meth:`co_run`.
        """
        keyed: list[tuple[tuple, tuple[KernelCharacteristics, ...], PartitionState, float]] = []
        for kernels, state, power_cap_w in runs:
            _check_group(kernels, state)
            group = tuple(kernels)
            cap = self._cap(power_cap_w)
            keyed.append((self._run_key(group, state, cap), group, state, cap))
        # A memo entry present now answers its key for the whole batch: if
        # the batch evicts it before a later repeat, the scalar loop would
        # re-solve that run to an equal result.
        known: dict[tuple, CoRunResult | _Run] = {}
        pending: dict[tuple, tuple[tuple[KernelCharacteristics, ...], PartitionState, float]] = {}
        for key, group, state, cap in keyed:
            cached = self._run_cache.get(key)
            if cached is not None:
                known[key] = cached
            else:
                pending.setdefault(key, (group, state, cap))
        known.update(self._solve_pending(pending))
        # Replay the scalar loop's memo traffic, run by run.
        results: list[CoRunResult | _Run] = []
        for key, *_ in keyed:
            result = self._run_cache.get(key)
            if result is None:
                result = known[key]
                self._remember(key, result)
            else:
                self._run_cache.move_to_end(key)
            results.append(result)
        return CoRunColumns(results)

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _cap(self, power_cap_w: float | None) -> float:
        if power_cap_w is None:
            return self._spec.default_power_limit_w
        return self._spec.validate_power_cap(power_cap_w)

    def _run_key(
        self,
        kernels: tuple[KernelCharacteristics, ...],
        state: PartitionState,
        cap: float,
    ) -> tuple:
        # Every input of a run is deterministic — the roofline/interference/
        # power pipeline is a pure function of (kernels, state, cap) and the
        # noise model derives its perturbation from a content hash, not an
        # RNG stream — so identical runs can be answered from a memo.  The
        # key captures kernels *behaviourally* (dataclass fields, not
        # identity), includes ``state.label`` (``state.key()`` ignores it but
        # the result embeds the state object), and pins the noise parameters
        # in case the model is swapped in place.
        return (
            tuple(kernel.signature for kernel in kernels),
            state.key(),
            state.label,
            cap,
            self._noise.sigma,
            self._noise.seed,
        )

    def _remember(self, key: tuple, result: CoRunResult | _Run) -> None:
        self._run_cache[key] = result
        if len(self._run_cache) > _RUN_CACHE_SIZE:
            self._run_cache.popitem(last=False)

    def _run(
        self,
        state: PartitionState,
        kernels: tuple[KernelCharacteristics, ...],
        power_cap_w: float | None,
    ) -> CoRunResult:
        cap = self._cap(power_cap_w)
        cache_key = self._run_key(kernels, state, cap)
        cached = self._run_cache.get(cache_key)
        if cached is not None:
            self._run_cache.move_to_end(cache_key)
            if isinstance(cached, _Run):
                cached = self._run_cache[cache_key] = cached.record()
            return cached
        shape = self._shape(cache_key[:2], state, kernels)
        points = len(shape.power)
        try:
            times, frequency, chip_power = self._govern(shape, cap, self._spec.mig_gpcs)
        finally:
            # Count the points the governor added, even if it raised.
            self._curve_points += len(shape.power) - points
            while self._curve_points > _CURVE_POINTS:
                _, forgotten = self._shapes.popitem(last=False)
                self._curve_points -= len(forgotten.power)
        result = self._measure(shape, state, cap, times, frequency, chip_power).record()
        self._remember(cache_key, result)
        return result

    def _shape(
        self,
        key: tuple,
        state: PartitionState,
        kernels: tuple[KernelCharacteristics, ...],
    ) -> _Shape:
        """The remembered shape under ``key``, built on its first run."""
        shape = self._shapes.get(key)
        if shape is not None:
            self._shapes.move_to_end(key)
            return shape
        # Validation is a pure function of the state's content, which the
        # key captures — a known shape implies the state already validated.
        shape = self._shapes[key] = self._new_shape(state, kernels)
        return shape

    def _new_shape(
        self, state: PartitionState, kernels: tuple[KernelCharacteristics, ...]
    ) -> _Shape:
        """A (group, state)'s shape, built from placements validated against it."""
        state.validate_against(self._spec)
        state_key = state.key()
        return _Shape(
            self._build_placements(state, kernels),
            self._spec.n_gpcs,
            [self._noise.prefix(kernel.name, state_key) for kernel in kernels],
            [self.reference_time(kernel) for kernel in kernels],
        )

    def _measure(
        self, shape: _Shape, state: PartitionState, cap: float,
        times: tuple[list[float], list[float]], frequency: float, chip_power: float,
    ) -> _Run:
        """A solved run with its noisy elapsed times, its record not yet built."""
        elapsed = [(m if m > c else c) + s for c, m, s in zip(*times, shape.serial)]
        measured = self._noise.apply(elapsed, shape.prefixes, cap)
        return _Run(shape.apps, state, cap, times, frequency, chip_power, measured)

    def _build_placements(
        self,
        state: PartitionState,
        kernels: tuple[KernelCharacteristics, ...],
    ) -> list[_Placement]:
        """One placement per application; pools follow the scheme's domains.

        Interference (cache pollution, bandwidth contention) only couples
        applications that draw from the same *contended* memory domain —
        the spec's partition scheme decides the domains: one per GPU
        Instance on MIG-style parts (all applications under the shared
        option, the members of each ``gi_groups`` group under the mixed
        option, nobody under the private option), one per NPS domain on
        independent-axes parts.
        """
        placements: list[_Placement] = []
        pool_of: dict[int, int] = {}
        for pool_id, pool in enumerate(
            self._spec.scheme.memory_pools(self._spec, state)
        ):
            if pool.contended:
                for index in pool.members:
                    pool_of[index] = pool_id
        for index, kernel in enumerate(kernels):
            allocation = state.allocation_for(index, self._spec)
            bandwidth_capacity = allocation.mem_slices / self._spec.n_mem_slices
            co_located = state.group_of(index)
            others = [kernels[j] for j in co_located if j != index]
            if others:
                # Contention happens inside the hosting memory domain, whose
                # LLC share is proportional to its memory slices — a
                # sub-chip shared GI (mixed layouts) is polluted harder
                # than the full-chip pool by the same co-runner.
                compute_penalty = self._interference.compute_penalty(
                    kernel, others, pool_mem_slices=allocation.mem_slices
                )
                memory_penalty = self._interference.memory_penalty(
                    kernel, others, pool_mem_slices=allocation.mem_slices
                )
            else:
                compute_penalty = 1.0
                memory_penalty = 1.0
            placements.append(
                _Placement(
                    kernel=kernel,
                    gpcs=allocation.gpcs,
                    bandwidth_capacity=bandwidth_capacity,
                    pool=pool_of.get(index),
                    compute_penalty=compute_penalty,
                    memory_penalty=memory_penalty,
                )
            )
        return placements

    # ------------------------------------------------------------------
    def _govern(
        self,
        shape: _Shape,
        power_cap_w: float,
        powered_gpcs: int,
    ) -> tuple[tuple[list[float], list[float]], float, float]:
        """Resolve clock, bandwidth shares, and compute and memory times under the cap.

        The governor reads the chip power from the shape's curve; only a
        clock this shape has never seen is solved, priced from its solved
        times, and remembered.  The shape keeps the times at the clock the
        governor selects.
        """
        fresh: dict[float, tuple[list[float], list[float]]] = {}

        def power_at(frequency: float) -> float:
            power = shape.power.get(frequency)
            if power is None:
                times = fresh[frequency] = shape.solve(frequency)
                power = shape.power[frequency] = self._power.chip_power(
                    shape.loads(*times), frequency, powered_gpcs
                )
            return power

        frequency = self._power.max_frequency_under_cap(power_at, power_cap_w)
        chip_power = power_at(frequency)
        solved = shape.solved.get(frequency)
        if solved is None:
            solved = shape.solved[frequency] = fresh.get(frequency) or shape.solve(frequency)
        return solved, frequency, chip_power

    # ------------------------------------------------------------------
    # Lockstep solve (co_run_batch)
    # ------------------------------------------------------------------
    def _solve_pending(
        self,
        pending: dict[tuple, tuple[tuple[KernelCharacteristics, ...], PartitionState, float]],
    ) -> dict[tuple, _Run]:
        """The runs the memo cannot answer, solved and measured, keyed like the memo."""
        powered_gpcs = self._spec.mig_gpcs
        # key[:2] is (kernel signatures, state content): placements depend
        # on neither the cap nor the label, so each (group, state) gets one
        # shape and its runs at every cap share its tables.
        shapes: dict[tuple, _Shape] = {}
        by_width: dict[int, list[tuple[tuple, _Shape, PartitionState, float]]] = {}
        results: dict[tuple, _Run] = {}
        for key, (kernels, state, cap) in pending.items():
            shape = shapes.get(key[:2])
            if shape is None:
                shape = shapes[key[:2]] = self._new_shape(state, kernels)
            by_width.setdefault(len(kernels), []).append((key, shape, state, cap))
        for runs in by_width.values():
            rows = _LockstepRows([run[1] for run in runs])

            def power_at(index: np.ndarray, frequency: np.ndarray) -> np.ndarray:
                loads = rows.loads(index, *rows.solve(index, frequency))
                return self._power.total_powers(loads, frequency, powered_gpcs)

            frequencies = self._power.max_frequencies_under_caps(
                power_at, [run[3] for run in runs]
            )
            everyone = np.arange(len(runs))
            compute, memory = rows.solve(everyone, frequencies)
            chip_powers = self._power.total_powers(
                rows.loads(everyone, compute, memory), frequencies, powered_gpcs
            )
            for (key, shape, state, cap), times, frequency, chip_power in zip(
                runs, zip(compute.tolist(), memory.tolist()), frequencies.tolist(),
                chip_powers.tolist(),
            ):
                results[key] = self._measure(shape, state, cap, times, frequency, chip_power)
        return results


def _check_group(kernels: Sequence[KernelCharacteristics], state: PartitionState) -> None:
    if state.n_apps != len(kernels):
        raise SimulationError(
            f"state {state.describe()} describes {state.n_apps} applications "
            f"but {len(kernels)} kernels were supplied"
        )


class _LockstepRows:
    """Runs of one group size, as ``(run, application)`` arrays.

    Row ``r`` holds run ``r`` and column ``i`` its application ``i``.
    The arrays stack the runs' shape tables, and every shared pool of
    every row is stacked with the pools of its member count, whatever the
    row's layout.  :meth:`solve` and :meth:`loads` repeat
    :meth:`_Shape.solve` and :meth:`_Shape.loads` float operation for
    float operation, on any subset of rows and at one clock per row.
    """

    def __init__(self, shape_of_row: Sequence[_Shape]) -> None:
        # One template row per shape; every run repeats its template.
        template_of: dict[_Shape, int] = {}
        for shape in shape_of_row:
            template_of.setdefault(shape, len(template_of))
        rows = np.array([template_of[shape] for shape in shape_of_row], dtype=np.intp)
        templates = list(template_of)

        def table(values: list[list[float]], dtype: type = float) -> np.ndarray:
            return np.array(values, dtype=dtype)[rows]

        self._scaled_compute = table([shape.scaled_compute for shape in templates])
        self._compute_penalty = table([shape.compute_penalty for shape in templates])
        self._memory_full = table([shape.memory_full for shape in templates])
        self._initial_memory = table([shape.initial_memory for shape in templates])
        self._serial = table([shape.serial for shape in templates])
        capacity = table([shape.capacity for shape in templates])
        self._gpcs = table([shape.gpcs for shape in templates], np.int64)
        self._cuda_fraction = table([shape.cuda_fraction for shape in templates])
        self._tensor_fraction = table([shape.tensor_fraction for shape in templates])
        #: Per member count: every pool's ``(row, member)`` index and its
        #: members' static times, capacities and pool capacity.
        stacked: dict[int, list[tuple[int, list[int], float]]] = {}
        for row, shape in enumerate(shape_of_row):
            for members, pool_capacity, *_ in shape.pools:
                stacked.setdefault(len(members), []).append((row, members, pool_capacity))
        self._pool_tables = []
        for pools in stacked.values():
            pool_rows, columns, capacities = zip(*pools)
            at = (np.array(pool_rows)[:, None], np.array(columns))
            pool_capacity = np.repeat(np.array(capacities)[:, None], len(columns[0]), axis=1)
            self._pool_tables.append(
                (at, self._memory_full[at], self._serial[at], capacity[at], pool_capacity)
            )

    def solve(self, index: np.ndarray, frequency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Compute and memory times of rows ``index``, each at its own clock."""
        compute = self._scaled_compute[index] / frequency[:, None] * self._compute_penalty[index]
        memory = self._initial_memory[index]
        position = np.full(len(self._scaled_compute), -1)  # -1: not in ``index``
        position[index] = np.arange(len(index))
        for (pool_rows, columns), *static in self._pool_tables:
            at = position[pool_rows]
            asked = at[:, 0] >= 0
            at = (at[asked], columns[asked])
            memory[at] = _settle_pool(
                compute[at], memory[at], *(table[asked] for table in static)
            )
        return compute, memory

    def loads(self, index: np.ndarray, compute: np.ndarray, memory: np.ndarray) -> InstanceLoads:
        """The instance loads of rows ``index`` given their solved times."""
        serial = self._serial[index]
        for label, values in (("compute_s", compute), ("memory_s", memory), ("serial_s", serial)):
            if np.any(values < 0):
                raise SimulationError(
                    f"{label} must be non-negative, got {values[values < 0][0]}"
                )
        elapsed = np.maximum(compute, memory) + serial
        busy = elapsed > 0
        dram = np.divide(self._memory_full[index], elapsed, out=np.zeros(elapsed.shape), where=busy)
        busy_fraction = np.minimum(
            1.0, np.divide(compute, elapsed, out=np.zeros(elapsed.shape), where=busy)
        )
        return InstanceLoads(
            n_gpcs=self._gpcs[index],
            cuda_utilization=busy_fraction * self._cuda_fraction[index],
            tensor_utilization=busy_fraction * self._tensor_fraction[index],
            dram_bw_fraction=np.minimum(1.0, dram),
        )


def _settle_pool(
    compute: np.ndarray,
    memory: np.ndarray,
    memory_full: np.ndarray,
    serial: np.ndarray,
    capacity: np.ndarray,
    pool_capacity: np.ndarray,
) -> np.ndarray:
    """One pool's damped bandwidth fixed point, for many runs in lockstep.

    Every array is ``(run, pool member)``; the settled memory times are
    returned.  Each step repeats the scalar loop of :meth:`_Shape._settle`
    float operation for float operation, and a run leaves the iteration at the
    step where the scalar loop would have stopped, freezing its times.
    """
    settled = memory.copy()
    elapsed = np.maximum(compute, memory) + serial
    streaming = memory_full > 0
    live = np.arange(len(memory))
    for _ in range(_BANDWIDTH_ITERATIONS):
        if not live.size:
            break
        # The scalar guards (elapsed > 0, total demand > 0) become masks.
        demand = np.divide(
            memory_full, elapsed, out=np.zeros(elapsed.shape), where=elapsed > 0
        )
        # The scalar fixed point totals its pool demands with the built-in
        # ``sum``; builtin_sum rounds the same way.
        total = builtin_sum(demand.T)[:, None]
        proportional = np.divide(
            pool_capacity * demand, total, out=pool_capacity.copy(), where=total > 0
        )
        available = np.maximum(pool_capacity - (total - demand), proportional)
        available = np.maximum(np.minimum(available, capacity), 1e-6)
        # Members without memory time keep their times.
        memory = np.where(streaming, memory_full / available, memory)
        fresh = np.where(streaming, np.maximum(compute, memory) + serial, elapsed)
        blended = _DAMPING * fresh + (1.0 - _DAMPING) * elapsed
        moved = np.abs(blended - elapsed) > 1e-9 * np.maximum(elapsed, 1e-9)
        elapsed = blended
        moving = moved.any(axis=1)
        if not moving.all():
            settled[live[~moving]] = memory[~moving]
            live = live[moving]
            compute, memory, memory_full, serial, capacity, pool_capacity, streaming, elapsed = (
                array[moving]
                for array in (
                    compute, memory, memory_full, serial, capacity,
                    pool_capacity, streaming, elapsed,
                )
            )
    settled[live] = memory
    return settled
