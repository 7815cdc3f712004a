"""The execution engine: solo runs, co-runs, reference runs, profiling.

:class:`PerformanceSimulator` combines the other pieces of the substrate:

* the **roofline** composition scales a kernel's time components to its
  allocation (GPCs, memory slices) and to the current clock;
* the **interference model** adds LLC pollution and HBM-bandwidth contention
  between Compute Instances that share a GPU Instance (shared option);
* the **power model** plays the role of the driver's power-cap governor and
  throttles the chip clock until the modelled power fits under the cap;
* the **noise model** perturbs the final elapsed time the way real
  measurements wobble.

The simulator self-consistently resolves the circular dependencies between
these pieces (bandwidth shares depend on elapsed times, elapsed times depend
on the clock, the clock depends on utilizations, utilizations depend on
elapsed times) with a small fixed-point iteration nested inside the
governor's bisection.

:meth:`PerformanceSimulator.co_run_batch` solves many runs at once for the
offline training sweeps: runs sharing a pool layout go through the governor
and the fixed point as NumPy arrays, one row per run, with every float
operation in the scalar solve's order, so each result is bit-identical to
:meth:`PerformanceSimulator.co_run`'s.
"""

from __future__ import annotations

import sys
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.gpu.mig import MemoryOption, PartitionState, solo_state
from repro.gpu.power import InstanceLoad, InstanceLoads, PowerModel
from repro.gpu.spec import A100_SPEC, GPUSpec
from repro.sim.counters import CounterVector, collect_counters
from repro.sim.interference import InterferenceModel
from repro.sim.noise import NoiseModel
from repro.sim.results import CoRunResult, RunResult
from repro.sim.roofline import TimeComponents, bound_of, elapsed_time
from repro.workloads.kernel import KernelCharacteristics

#: Iterations of the bandwidth-contention fixed point (damped; converges in
#: a handful of steps for small co-location groups).
_BANDWIDTH_ITERATIONS = 40

#: Damping factor of the fixed point (new = d*new + (1-d)*old).
_DAMPING = 0.6

#: Entries kept in the run-result memo (distinct (kernels, state, cap)
#: combinations; a bounded application mix stays far below this).
_RUN_CACHE_SIZE = 4096

#: Whether the built-in ``sum`` compensates float additions (Neumaier's
#: algorithm, CPython 3.12+) rather than adding left to right.
_COMPENSATED_SUM = sys.version_info >= (3, 12)

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


@dataclass
class _SolvedPlacement:
    """Converged execution state of one placement at a fixed clock."""

    components: TimeComponents
    elapsed_s: float
    dram_bw_fraction: float


class PerformanceSimulator:
    """Analytic executor for kernels on the simulated MIG/power-capped GPU.

    Parameters
    ----------
    spec:
        Hardware specification of the simulated GPU.
    interference:
        Interference model for the shared memory option (defaults to the
        calibrated :class:`~repro.sim.interference.InterferenceModel`).
    noise:
        Measurement-noise model; pass ``NoiseModel(sigma=0.0)`` (or
        :func:`repro.sim.noise.no_noise`) for exact, repeatable numbers.
    power_model:
        Chip power model / power-cap governor.
    """

    def __init__(
        self,
        spec: GPUSpec = A100_SPEC,
        interference: InterferenceModel | None = None,
        noise: NoiseModel | None = None,
        power_model: PowerModel | None = None,
    ) -> None:
        self._spec = spec
        self._interference = (
            interference if interference is not None else InterferenceModel(spec=spec)
        )
        self._noise = noise if noise is not None else NoiseModel()
        self._power = power_model if power_model is not None else PowerModel(spec)
        self._reference_cache: dict[tuple, float] = {}
        self._run_cache: OrderedDict[tuple, CoRunResult] = OrderedDict()
        # Signature memo keyed by object identity with a weakref guard: a
        # dead kernel's recycled address can never alias a fresh one, and
        # dead entries evict themselves via the ref callback.
        self._kernel_sig_cache: dict[
            int, tuple[weakref.ref[KernelCharacteristics], tuple]
        ] = {}

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def spec(self) -> GPUSpec:
        """The hardware specification in use."""
        return self._spec

    @property
    def interference(self) -> InterferenceModel:
        """The interference model in use."""
        return self._interference

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
        key = (
            kernel.name,
            kernel.compute_time_full_s,
            kernel.memory_time_full_s,
            kernel.serial_time_s,
        )
        cached = self._reference_cache.get(key)
        if cached is not None:
            return cached
        placement = _Placement(
            kernel=kernel,
            gpcs=self._spec.n_gpcs,
            bandwidth_capacity=1.0,
            pool=None,
        )
        solved, _, _ = self._solve(
            [placement],
            power_cap_w=self._spec.default_power_limit_w,
            powered_gpcs=self._spec.n_gpcs,
        )
        reference = solved[0].elapsed_s
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

    def co_run_batch(self, runs: Sequence[RunRequest]) -> list[CoRunResult]:
        """Co-execute many groups: ``[self.co_run(k, s, c) for k, s, c in runs]``.

        The result list, and the run memo afterwards (its entries and their
        LRU order), are exactly what that scalar loop produces.  Runs the
        memo cannot answer are solved together: placements are built once
        per (group, state) rather than once per cap, and runs that share a
        pool layout go through the power-cap governor and the bandwidth
        fixed point in lockstep, one array row per run, with every float
        operation in the scalar solve's order.  This is the offline
        training sweeps' entry point; one-at-a-time callers (the event
        loop) should keep calling :meth:`co_run`.
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
        known: dict[tuple, CoRunResult] = {}
        pending: dict[tuple, tuple[tuple[KernelCharacteristics, ...], PartitionState, float]] = {}
        for key, group, state, cap in keyed:
            cached = self._run_cache.get(key)
            if cached is not None:
                known[key] = cached
            else:
                pending.setdefault(key, (group, state, cap))
        known.update(self._solve_pending(pending))
        # Replay the scalar loop's memo traffic, run by run.
        results: list[CoRunResult] = []
        for key, *_ in keyed:
            result = self._run_cache.get(key)
            if result is None:
                result = known[key]
                self._remember(key, result)
            else:
                self._run_cache.move_to_end(key)
            results.append(result)
        return results

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
            tuple(self._kernel_signature(kernel) for kernel in kernels),
            state.key(),
            state.label,
            cap,
            self._noise.sigma,
            self._noise.seed,
        )

    def _remember(self, key: tuple, result: CoRunResult) -> None:
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
            return cached
        # Validation is a pure function of the state's content, which the
        # cache key captures — a hit implies the state already validated.
        state.validate_against(self._spec)
        placements = self._build_placements(state, kernels)
        powered_gpcs = self._spec.mig_gpcs
        solved, frequency, chip_power = self._solve(placements, cap, powered_gpcs)
        result = self._assemble(state, kernels, cap, solved, frequency, chip_power)
        self._remember(cache_key, result)
        return result

    def _assemble(
        self,
        state: PartitionState,
        kernels: tuple[KernelCharacteristics, ...],
        cap: float,
        solved: Sequence[_SolvedPlacement],
        frequency: float,
        chip_power: float,
    ) -> CoRunResult:
        """The run's result record: noisy measurements of a solved run."""
        per_app: list[RunResult] = []
        for index, (kernel, solution) in enumerate(zip(kernels, solved)):
            reference = self.reference_time(kernel)
            noise_key = (
                kernel.name,
                state.key(),
                index,
                round(cap, 3),
            )
            measured = self._noise.apply(solution.elapsed_s, noise_key)
            per_app.append(
                RunResult(
                    kernel_name=kernel.name,
                    state=state,
                    app_index=index,
                    power_cap_w=cap,
                    elapsed_s=measured,
                    noiseless_elapsed_s=solution.elapsed_s,
                    reference_s=reference,
                    relative_performance=reference / measured,
                    relative_frequency=frequency,
                    compute_time_s=solution.components.compute_s,
                    memory_time_s=solution.components.memory_s,
                    serial_time_s=solution.components.serial_s,
                    achieved_bandwidth_gbs=solution.dram_bw_fraction
                    * self._spec.dram_bandwidth_gbs,
                    chip_power_w=chip_power,
                    bound=bound_of(solution.components),
                )
            )
        return CoRunResult(
            state=state,
            power_cap_w=cap,
            per_app=tuple(per_app),
            chip_power_w=chip_power,
            relative_frequency=frequency,
        )

    def _kernel_signature(self, kernel: KernelCharacteristics) -> tuple:
        """Hashable snapshot of every kernel field the pipeline reads.

        ``KernelCharacteristics`` itself is unhashable (``pipe_fractions``
        is a dict), so the memo keys on ``id(kernel)`` — with a weakref
        identity guard: the stored ref must still point at *this* kernel,
        so a dead kernel's recycled address can never alias a fresh one,
        and the ref's callback evicts the entry instead of pinning the
        kernel alive forever.
        """
        cache = self._kernel_sig_cache
        key = id(kernel)
        entry = cache.get(key)
        if entry is not None and entry[0]() is kernel:
            return entry[1]
        signature = (
            kernel.name,
            kernel.compute_time_full_s,
            kernel.memory_time_full_s,
            kernel.serial_time_s,
            tuple(sorted(kernel.pipe_fractions.items())),
            kernel.l2_hit_rate,
            kernel.occupancy,
            kernel.working_set_mb,
            kernel.l2_sensitivity,
        )
        try:
            ref = weakref.ref(kernel, lambda _, c=cache, k=key: c.pop(k, None))
        except TypeError:
            # A slotted kernel subclass without __weakref__: skip the memo
            # rather than risk an unguarded id-keyed entry.
            return signature
        cache[key] = (ref, signature)
        return signature

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
    def _solve(
        self,
        placements: Sequence[_Placement],
        power_cap_w: float,
        powered_gpcs: int,
    ) -> tuple[list[_SolvedPlacement], float, float]:
        """Resolve clock, bandwidth shares, and elapsed times under the cap."""

        def loads_at(frequency: float) -> list[InstanceLoad]:
            solved = self._solve_at_frequency(placements, frequency)
            return self._loads_from_solution(placements, solved)

        frequency = self._power.max_frequency_under_cap(
            loads_at, power_cap_w, powered_gpcs=powered_gpcs
        )
        solved = self._solve_at_frequency(placements, frequency)
        loads = self._loads_from_solution(placements, solved)
        chip_power = self._power.total_power(loads, frequency, powered_gpcs)
        return solved, frequency, chip_power

    def _solve_at_frequency(
        self,
        placements: Sequence[_Placement],
        frequency: float,
    ) -> list[_SolvedPlacement]:
        """Fixed point of the bandwidth-contention problem at a given clock."""
        spec = self._spec
        n = len(placements)
        compute_times = [
            p.kernel.compute_time_full_s
            * (spec.n_gpcs / p.gpcs)
            / frequency
            * p.compute_penalty
            for p in placements
        ]
        # Memory time at full-chip bandwidth, including the pollution penalty.
        memory_full = [
            p.kernel.memory_time_full_s * p.memory_penalty for p in placements
        ]
        serial_times = [p.kernel.serial_time_s for p in placements]

        # Initial guess: everyone sees their full capacity.
        memory_times = [
            (memory_full[i] / placements[i].bandwidth_capacity if memory_full[i] > 0 else 0.0)
            for i in range(n)
        ]
        elapsed = [
            max(compute_times[i], memory_times[i]) + serial_times[i] for i in range(n)
        ]

        pools: dict[int, list[int]] = {}
        for i in range(n):
            if placements[i].pool is not None:
                pools.setdefault(placements[i].pool, []).append(i)
        for shared_indices in pools.values():
            if len(shared_indices) <= 1:
                continue
            pool_capacity = max(
                placements[i].bandwidth_capacity for i in shared_indices
            )
            for _ in range(_BANDWIDTH_ITERATIONS):
                demands = {
                    i: (memory_full[i] / elapsed[i] if elapsed[i] > 0 else 0.0)
                    for i in shared_indices
                }
                total_demand = sum(demands.values())
                new_elapsed = list(elapsed)
                for i in shared_indices:
                    if memory_full[i] <= 0:
                        continue
                    others_demand = total_demand - demands[i]
                    if total_demand > 0:
                        proportional = pool_capacity * demands[i] / total_demand
                    else:
                        proportional = pool_capacity
                    available = max(pool_capacity - others_demand, proportional)
                    available = min(available, placements[i].bandwidth_capacity)
                    available = max(available, 1e-6)
                    memory_times[i] = memory_full[i] / available
                    new_elapsed[i] = (
                        max(compute_times[i], memory_times[i]) + serial_times[i]
                    )
                converged = True
                for i in shared_indices:
                    blended = _DAMPING * new_elapsed[i] + (1.0 - _DAMPING) * elapsed[i]
                    if abs(blended - elapsed[i]) > 1e-9 * max(elapsed[i], 1e-9):
                        converged = False
                    elapsed[i] = blended
                if converged:
                    break
            # Recompute elapsed exactly from the final memory times.
            for i in shared_indices:
                elapsed[i] = max(compute_times[i], memory_times[i]) + serial_times[i]

        return [
            _solved_placement(
                compute_times[i], memory_times[i], serial_times[i], memory_full[i]
            )
            for i in range(n)
        ]

    def _loads_from_solution(
        self,
        placements: Sequence[_Placement],
        solved: Sequence[_SolvedPlacement],
    ) -> list[InstanceLoad]:
        loads: list[InstanceLoad] = []
        for placement, solution in zip(placements, solved):
            if solution.elapsed_s <= 0:
                busy_fraction = 0.0
            else:
                busy_fraction = min(
                    1.0, solution.components.compute_s / solution.elapsed_s
                )
            loads.append(
                InstanceLoad(
                    n_gpcs=placement.gpcs,
                    cuda_utilization=busy_fraction * placement.kernel.cuda_fraction,
                    tensor_utilization=busy_fraction * placement.kernel.tensor_fraction,
                    dram_bw_fraction=solution.dram_bw_fraction,
                )
            )
        return loads

    # ------------------------------------------------------------------
    # Lockstep solve (co_run_batch)
    # ------------------------------------------------------------------
    def _solve_pending(
        self,
        pending: dict[tuple, tuple[tuple[KernelCharacteristics, ...], PartitionState, float]],
    ) -> dict[tuple, CoRunResult]:
        """Results of the runs the memo cannot answer, keyed like the memo."""
        powered_gpcs = self._spec.mig_gpcs
        # key[:2] is (kernel signatures, state content): placements depend
        # on neither the cap nor the label, so each (group, state) is
        # placed once and its runs at every cap share the placements.
        shapes: dict[tuple, tuple[list[_Placement], tuple]] = {}
        by_layout: dict[tuple, list[tuple]] = {}
        results: dict[tuple, CoRunResult] = {}
        for key, (kernels, state, cap) in pending.items():
            shape = shapes.get(key[:2])
            if shape is None:
                state.validate_against(self._spec)
                placements = self._build_placements(state, kernels)
                shape = shapes[key[:2]] = (placements, _pool_layout(placements))
            by_layout.setdefault(shape[1], []).append((key, kernels, state, cap))
        for layout, runs in by_layout.items():
            rows = _LockstepRows(self._spec, layout, shapes, [run[0][:2] for run in runs])

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
            for (key, kernels, state, cap), solved, frequency, chip_power in zip(
                runs,
                rows.solved_placements(compute, memory),
                frequencies.tolist(),
                chip_powers.tolist(),
            ):
                results[key] = self._assemble(
                    state, kernels, cap, solved, frequency, chip_power
                )
        return results


def _check_group(kernels: Sequence[KernelCharacteristics], state: PartitionState) -> None:
    if state.n_apps != len(kernels):
        raise SimulationError(
            f"state {state.describe()} describes {state.n_apps} applications "
            f"but {len(kernels)} kernels were supplied"
        )


def _solved_placement(
    compute_s: float, memory_s: float, serial_s: float, memory_full_s: float
) -> _SolvedPlacement:
    components = TimeComponents(compute_s=compute_s, memory_s=memory_s, serial_s=serial_s)
    total = elapsed_time(components)
    dram_bw_fraction = memory_full_s / total if total > 0 else 0.0
    return _SolvedPlacement(
        components=components,
        elapsed_s=total,
        dram_bw_fraction=min(1.0, dram_bw_fraction),
    )


def _pool_layout(placements: Sequence[_Placement]) -> tuple:
    """The shared pools ``_solve_at_frequency`` iterates, as index tuples.

    Runs with the same layout can share one lockstep solve.
    """
    pools: dict[int, list[int]] = {}
    for index, placement in enumerate(placements):
        if placement.pool is not None:
            pools.setdefault(placement.pool, []).append(index)
    return (len(placements),) + tuple(
        tuple(members) for members in pools.values() if len(members) > 1
    )


def _builtin_sum(columns: Sequence[np.ndarray], compensated: bool = _COMPENSATED_SUM) -> np.ndarray:
    """Row-wise ``sum([columns[0][r], columns[1][r], ...])`` over Python floats.

    The built-in adds left to right from ``0``; from CPython 3.12 it also
    carries a Neumaier compensation term, added at the end when it is
    non-zero and finite.  The scalar fixed point totals its pool demands
    with the built-in, so the lockstep solve rounds the same way.
    """
    total = 0.0 + columns[0]
    if not compensated:
        for column in columns[1:]:
            total = total + column
        return total
    compensation = np.zeros(total.shape)
    for column in columns[1:]:
        step = total + column
        compensation = compensation + np.where(
            np.abs(total) >= np.abs(column),
            (total - step) + column,
            (column - step) + total,
        )
        total = step
    return np.where(
        (compensation != 0.0) & np.isfinite(compensation), total + compensation, total
    )


class _LockstepRows:
    """Runs sharing one pool layout, as ``(run, application)`` arrays.

    Row ``r`` holds run ``r`` and column ``i`` its application ``i``.
    :meth:`solve` and :meth:`loads` repeat ``_solve_at_frequency`` and
    ``_loads_from_solution`` float operation for float operation, on any
    subset of rows and at one clock per row.
    """

    def __init__(
        self,
        spec: GPUSpec,
        layout: tuple,
        shapes: dict[tuple, tuple[list[_Placement], tuple]],
        shape_of_row: Sequence[tuple],
    ) -> None:
        # One template row per (group, state); every run repeats its
        # template.  Everything before the clock enters is computed here,
        # in Python, exactly as the scalar solve writes it.
        template_of: dict[tuple, int] = {}
        for shape in shape_of_row:
            template_of.setdefault(shape, len(template_of))
        rows = np.array([template_of[shape] for shape in shape_of_row], dtype=np.intp)
        templates = [shapes[shape][0] for shape in template_of]

        def table(values: list[list[float]], dtype: type = float) -> np.ndarray:
            return np.array(values, dtype=dtype)[rows]

        memory_full = [
            [p.kernel.memory_time_full_s * p.memory_penalty for p in row] for row in templates
        ]
        self._scaled_compute = table(
            [[p.kernel.compute_time_full_s * (spec.n_gpcs / p.gpcs) for p in row] for row in templates]
        )
        self._compute_penalty = table([[p.compute_penalty for p in row] for row in templates])
        self._memory_full = table(memory_full)
        self._initial_memory = table(
            [
                [(full / p.bandwidth_capacity if full > 0 else 0.0) for full, p in zip(fulls, row)]
                for fulls, row in zip(memory_full, templates)
            ]
        )
        self._serial = table([[p.kernel.serial_time_s for p in row] for row in templates])
        capacity = table([[p.bandwidth_capacity for p in row] for row in templates])
        # Per pool: its member columns, their static times, and the pool's
        # capacity (the largest member capacity) repeated per member.
        self._pool_tables = [
            (
                list(pool),
                self._memory_full[:, pool],
                self._serial[:, pool],
                capacity[:, pool],
                np.repeat(capacity[:, pool].max(axis=1, keepdims=True), len(pool), axis=1),
            )
            for pool in layout[1:]
        ]
        self._gpcs = table([[p.gpcs for p in row] for row in templates], np.int64)
        self._cuda_fraction = table([[p.kernel.cuda_fraction for p in row] for row in templates])
        self._tensor_fraction = table(
            [[p.kernel.tensor_fraction for p in row] for row in templates]
        )

    def solve(self, index: np.ndarray, frequency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Compute and memory times of rows ``index``, each at its own clock."""
        compute = self._scaled_compute[index] / frequency[:, None] * self._compute_penalty[index]
        memory = self._initial_memory[index]
        for pool, *static in self._pool_tables:
            memory[:, pool] = _settle_pool(
                compute[:, pool], memory[:, pool], *(table[index] for table in static)
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

    def solved_placements(
        self, compute: np.ndarray, memory: np.ndarray
    ) -> list[list[_SolvedPlacement]]:
        """Every row's scalar solution records, built from its solved times."""
        return [
            [_solved_placement(*values) for values in zip(*row)]
            for row in zip(
                compute.tolist(),
                memory.tolist(),
                self._serial.tolist(),
                self._memory_full.tolist(),
            )
        ]


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
    returned.  Each step repeats the scalar loop of ``_solve_at_frequency``
    float operation for float operation, and a run leaves the iteration
    at the step where the scalar loop would have stopped, freezing its
    times.
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
        total = _builtin_sum(demand.T)[:, None]
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
