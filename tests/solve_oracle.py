"""The scalar solve the engine's shape tables replaced, kept as a reference.

:func:`solve_at_frequency` is the bandwidth fixed point at one clock as
the engine once ran it, building every record on the way;
:func:`loads_from_solution` turns its solution into instance loads and
:func:`total_power` prices them with the chip-power formula, read from
the load records term by term (:meth:`PowerModel.chip_power` must equal
it bit for bit).  :func:`chip_power_at`
chains the three, so a shape's power curve and its solved times can be
checked against them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.gpu.power import InstanceLoad
from repro.sim.engine import _BANDWIDTH_ITERATIONS, _DAMPING
from repro.sim.roofline import TimeComponents
from repro.units import clamp


@dataclass
class SolvedPlacement:
    """Converged execution state of one placement at a fixed clock."""

    components: TimeComponents
    elapsed_s: float
    dram_bw_fraction: float


def _solved_placement(compute_s, memory_s, serial_s, memory_full_s):
    components = TimeComponents(compute_s=compute_s, memory_s=memory_s, serial_s=serial_s)
    total = max(compute_s, memory_s) + serial_s
    dram_bw_fraction = memory_full_s / total if total > 0 else 0.0
    return SolvedPlacement(
        components=components,
        elapsed_s=total,
        dram_bw_fraction=min(1.0, dram_bw_fraction),
    )


def solve_at_frequency(simulator, placements, frequency):
    """Fixed point of the bandwidth-contention problem at a given clock."""
    spec = simulator.spec
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


def loads_from_solution(placements, solved):
    """The instance loads of a solved placement list."""
    loads = []
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


def total_power(power_model, loads, relative_frequency, powered_gpcs=None):
    """Total chip power in watts at the given operating point.

    The static, idle-GPC, dynamic-GPC, idle-HBM and dynamic-HBM terms,
    added in that order.
    """
    spec = power_model.spec
    if powered_gpcs is None:
        powered_gpcs = spec.n_gpcs
    if not (0 < powered_gpcs <= spec.n_gpcs):
        raise ConfigurationError(
            f"powered_gpcs must be in (0, {spec.n_gpcs}], got {powered_gpcs}"
        )
    busy_gpcs = sum(load.n_gpcs for load in loads)
    if busy_gpcs > powered_gpcs:
        raise ConfigurationError(
            f"loads occupy {busy_gpcs} GPCs but only {powered_gpcs} are powered"
        )
    scale = power_model.dvfs.dynamic_power_scale(relative_frequency)
    gpc_dynamic = 0.0
    total_bw_fraction = 0.0
    for load in loads:
        per_gpc = (
            spec.gpc_cuda_power_w * load.cuda_utilization
            + spec.gpc_tensor_power_w * load.tensor_utilization
        )
        gpc_dynamic += load.n_gpcs * per_gpc * scale
        total_bw_fraction += load.dram_bw_fraction
    total_bw_fraction = clamp(total_bw_fraction, 0.0, 1.0)
    return (
        spec.static_power_w
        + powered_gpcs * spec.gpc_idle_power_w
        + gpc_dynamic
        + spec.hbm_idle_power_w
        + spec.hbm_dynamic_power_w * total_bw_fraction
    )


def chip_power_at(simulator, placements, frequency, powered_gpcs):
    """The scalar solve's chip power and solution records at one clock."""
    solved = solve_at_frequency(simulator, placements, frequency)
    loads = loads_from_solution(placements, solved)
    return total_power(simulator.power_model, loads, frequency, powered_gpcs), solved
