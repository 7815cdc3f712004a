"""Offline calibration of the model coefficients (Section 5.1.3).

The paper's calibration procedure has two stages:

1. **Scalability term** — every benchmark of the training set is executed
   *solo* while sweeping the hardware state (GPC count × memory option ×
   power cap).  For each hardware state the measured relative performances
   are regressed (least squares) on the ``H(F)`` features, giving ``C(S,P)``.
2. **Interference term** — the co-run training workloads are executed for
   every co-run hardware state.  For each application the residual between
   its measured relative performance and the already-fitted scalability
   prediction is regressed on the co-runner's ``J(F)`` features, giving
   ``D(S,P)``.

A third stage extends the paper's procedure to *mixed* GI layouts: a
Compute Instance inside a sub-chip shared GPU Instance reaches a hardware
state (GPCs × the GI's memory slices × shared) that no solo run can
realize, so its scalability and interference coefficients are fitted
**jointly** from mixed-state co-run measurements (design ``[H | ΣJ]``).
Keys the solo sweep does reach are never touched by this stage, which
keeps full-GI predictions bit-identical to the two-stage fit.

All stages work purely on measurement records, so they can equally be fed
from the simulator (this reproduction) or from real hardware runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.config import DEFAULT_POWER_CAPS, SCALABILITY_GPC_COUNTS
from repro.core.features import (
    DEFAULT_BASIS,
    BasisFunctions,
    dram_demand,
    pool_saturation_terms,
    servable_fraction,
)
from repro.core.model import HardwareStateKey, LinearPerfModel
from repro.errors import ModelError
from repro.gpu.mig import CORUN_STATES, MemoryOption, PartitionState, solo_state
from repro.gpu.spec import A100_SPEC, GPUSpec
from repro.sim.counters import CounterVector
from repro.sim.engine import PerformanceSimulator
from repro.workloads.kernel import KernelCharacteristics

#: Floor on the RPerf value used for the relative weighting of the mixed
#: fit; keeps a (theoretical) zero measurement from producing an infinite
#: row weight.
_RELATIVE_WEIGHT_FLOOR = 1e-3


@dataclass(frozen=True)
class SoloMeasurement:
    """One solo training measurement: an application on one hardware state.

    ``mem_slices`` records the memory slices of the GPU Instance the run
    executed in (the GI's own slices under the private option, the full
    chip's under the shared option), so the measurement carries its
    complete GI-size-aware hardware-state key.
    """

    kernel_name: str
    counters: CounterVector
    gpcs: int
    option: MemoryOption
    power_cap_w: float
    relative_performance: float
    mem_slices: int

    @property
    def key(self) -> HardwareStateKey:
        """The hardware-state key this measurement calibrates."""
        return HardwareStateKey(self.gpcs, self.mem_slices, self.option, self.power_cap_w)


@dataclass(frozen=True)
class CoRunMeasurement:
    """One co-run training measurement: a pair (or more) on one state."""

    kernel_names: tuple[str, ...]
    counters: tuple[CounterVector, ...]
    state: PartitionState
    power_cap_w: float
    relative_performances: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (
            len(self.kernel_names)
            == len(self.counters)
            == len(self.relative_performances)
            == self.state.n_apps
        ):
            raise ModelError(
                "co-run measurement is inconsistent: "
                f"{len(self.kernel_names)} names, {len(self.counters)} profiles, "
                f"{len(self.relative_performances)} performances, "
                f"state with {self.state.n_apps} applications"
            )


@dataclass
class TrainingReport:
    """Summary of one calibration run (sizes and per-state residuals)."""

    n_solo_measurements: int = 0
    n_corun_measurements: int = 0
    scalability_residuals: dict[HardwareStateKey, float] = field(default_factory=dict)
    interference_residuals: dict[HardwareStateKey, float] = field(default_factory=dict)
    mixed_residuals: dict[HardwareStateKey, float] = field(default_factory=dict)
    composition_residuals: dict[HardwareStateKey, float] = field(default_factory=dict)

    @property
    def worst_scalability_residual(self) -> float:
        """Largest per-state RMS residual of the scalability fit."""
        return max(self.scalability_residuals.values(), default=0.0)

    @property
    def worst_interference_residual(self) -> float:
        """Largest per-state RMS residual of the interference fit."""
        return max(self.interference_residuals.values(), default=0.0)

    @property
    def worst_mixed_residual(self) -> float:
        """Largest per-state RMS residual of the joint mixed-state fit."""
        return max(self.mixed_residuals.values(), default=0.0)

    @property
    def worst_composition_residual(self) -> float:
        """Largest per-state RMS residual of the full-chip composition fit."""
        return max(self.composition_residuals.values(), default=0.0)


class ModelTrainer:
    """Least-squares calibration of :class:`~repro.core.model.LinearPerfModel`."""

    def __init__(
        self,
        basis: BasisFunctions = DEFAULT_BASIS,
        ridge: float = 1e-6,
        spec: GPUSpec = A100_SPEC,
    ) -> None:
        if ridge < 0:
            raise ModelError(f"ridge parameter must be >= 0, got {ridge}")
        self._basis = basis
        self._ridge = ridge
        self._spec = spec
        self.last_report: TrainingReport | None = None

    @property
    def basis(self) -> BasisFunctions:
        """The basis functions used for fitting."""
        return self._basis

    @property
    def spec(self) -> GPUSpec:
        """The hardware spec the per-application keys are derived against."""
        return self._spec

    # ------------------------------------------------------------------
    # Low-level regression helper
    # ------------------------------------------------------------------
    def _least_squares(self, design: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Ridge-stabilised least squares (the well-known normal equations)."""
        if design.shape[0] == 0:
            raise ModelError("cannot fit coefficients from zero measurements")
        gram = design.T @ design + self._ridge * np.eye(design.shape[1])
        return np.linalg.solve(gram, design.T @ target)

    # ------------------------------------------------------------------
    # Stage 1: scalability term
    # ------------------------------------------------------------------
    def fit_scalability(
        self,
        measurements: Sequence[SoloMeasurement],
        model: LinearPerfModel | None = None,
    ) -> LinearPerfModel:
        """Fit ``C(S, P)`` for every hardware state present in ``measurements``."""
        model = model if model is not None else LinearPerfModel(self._basis, spec=self._spec)
        report = self.last_report or TrainingReport()
        report.n_solo_measurements += len(measurements)
        grouped: dict[HardwareStateKey, list[SoloMeasurement]] = {}
        for measurement in measurements:
            grouped.setdefault(measurement.key, []).append(measurement)
        for key, group in grouped.items():
            design = self._basis.h_matrix([m.counters for m in group])
            target = np.array([m.relative_performance for m in group], dtype=float)
            coefficients = self._least_squares(design, target)
            model.set_scalability_coefficients(key, coefficients)
            residual = design @ coefficients - target
            report.scalability_residuals[key] = float(
                np.sqrt(np.mean(residual**2))
            )
        self.last_report = report
        return model

    # ------------------------------------------------------------------
    # Stage 2: interference term
    # ------------------------------------------------------------------
    def fit_interference(
        self,
        measurements: Sequence[CoRunMeasurement],
        model: LinearPerfModel,
    ) -> LinearPerfModel:
        """Fit ``D(S, P)`` from co-run measurements, with ``C`` already fitted.

        Mixed-state measurements are excluded: their sub-chip shared keys
        have no solo-swept scalability term to take residuals against, and
        even their private-GI rows must not perturb the pair-era residual
        regressions (full-GI coefficients stay bit-identical to a training
        run without mixed states).  They are consumed by :meth:`fit_mixed`.
        N≥3 full-chip shared measurements are likewise excluded — folding
        their rows into the residual regression would move the pair-era
        ``D`` vectors; they feed :meth:`fit_composition` instead.
        """
        report = self.last_report or TrainingReport()
        report.n_corun_measurements += len(measurements)
        design_rows: dict[HardwareStateKey, list[np.ndarray]] = {}
        targets: dict[HardwareStateKey, list[float]] = {}
        for measurement in measurements:
            if measurement.state.option is MemoryOption.MIXED:
                continue
            if (
                measurement.state.option is MemoryOption.SHARED
                and measurement.state.n_apps > 2
            ):
                continue
            for index in range(measurement.state.n_apps):
                key = HardwareStateKey.from_state(
                    measurement.state, index, measurement.power_cap_w, self._spec
                )
                own_counters = measurement.counters[index]
                others = [
                    measurement.counters[j]
                    for j in measurement.state.interference_partners(index)
                ]
                if not others:
                    continue
                scalability = model.predict_solo(own_counters, key)
                residual = measurement.relative_performances[index] - scalability
                # The interference contribution of several co-runners is the
                # sum of their J features — stack them into one row.
                row = np.sum(self._basis.j_matrix(others), axis=0)
                design_rows.setdefault(key, []).append(row)
                targets.setdefault(key, []).append(residual)
        for key, rows in design_rows.items():
            design = np.vstack(rows)
            target = np.array(targets[key], dtype=float)
            coefficients = self._least_squares(design, target)
            model.set_interference_coefficients(key, coefficients)
            residual = design @ coefficients - target
            report.interference_residuals[key] = float(np.sqrt(np.mean(residual**2)))
        self.last_report = report
        return model

    # ------------------------------------------------------------------
    # Stage 3: mixed-state (sub-chip shared GI) term
    # ------------------------------------------------------------------
    def fit_mixed(
        self,
        measurements: Sequence[CoRunMeasurement],
        model: LinearPerfModel,
    ) -> LinearPerfModel:
        """Jointly fit ``C`` and ``D`` for sub-chip shared GI states.

        A Compute Instance inside a sub-chip shared GPU Instance reaches a
        hardware-state key no solo run can realize, so its scalability and
        interference coefficients are regressed together from mixed-state
        co-run measurements: each row stacks
        ``[H(F_i) | s_i · Σ_j J(F_j) | σ · H(F_i) | P(F_i, F_j, q)]``
        against the measured relative performance, where ``s_i`` is the
        victim-side interference scale the model applies at prediction time
        (see :meth:`LinearPerfModel.interference_scale` — sub-chip pools
        saturate, so a co-runner's pressure costs the victim in proportion
        to its own DRAM appetite), ``σ`` is the pool's servable fraction
        of the combined DRAM demand
        (:func:`repro.core.features.servable_fraction`), and ``P`` are the
        capacity-aware pool terms of
        :func:`repro.core.features.pool_saturation_terms` (key schema v3).
        The ``σ``-scaled copy of the victim's own basis reproduces the
        reciprocal roll-off of a clipped pool, and the saturating /
        excess-hinge pool terms let the fit bend exactly where a tiny pool
        (the 1-GPC/2-slice GI) clips — which a linear-in-``J`` model
        cannot.  The model applies the identical basis at prediction time,
        keeping fit and prediction consistent.  Keys the solo sweep
        already calibrated are skipped (their rows belong to the private
        or full-chip shared fits and must stay untouched), as are
        applications alone in their GI (their keys are plain private
        ones).
        """
        report = self.last_report or TrainingReport()
        design_rows: dict[HardwareStateKey, list[np.ndarray]] = {}
        targets: dict[HardwareStateKey, list[float]] = {}
        for measurement in measurements:
            if measurement.state.option is not MemoryOption.MIXED:
                continue
            for index in range(measurement.state.n_apps):
                key = HardwareStateKey.from_state(
                    measurement.state, index, measurement.power_cap_w, self._spec
                )
                # Only sub-chip shared keys are fitted here.  An application
                # alone in its GI carries a plain PRIVATE key: if the solo
                # sweep covered it the coefficients must stay untouched, and
                # if it did not, fitting it from cross-GI co-runner rows
                # would silently produce wrong private-key coefficients —
                # leaving it unfitted raises the honest NotFittedError.
                if not model.is_sub_chip_shared(key):
                    continue
                if model.has_scalability(key):
                    continue
                others = [
                    measurement.counters[j]
                    for j in measurement.state.interference_partners(index)
                ]
                own = self._basis.h(measurement.counters[index])
                scale = model.interference_scale(key, measurement.counters[index])
                partners = scale * np.sum(self._basis.j_matrix(others), axis=0)
                victim_demand = dram_demand(measurement.counters[index])
                co_runner_demand = sum(dram_demand(other) for other in others)
                pool_fraction = model.pool_fraction(key)
                servable = servable_fraction(
                    victim_demand, co_runner_demand, pool_fraction
                )
                pool = pool_saturation_terms(
                    victim_demand, co_runner_demand, pool_fraction
                )
                design_rows.setdefault(key, []).append(
                    np.concatenate([own, partners, servable * own, pool])
                )
                targets.setdefault(key, []).append(
                    measurement.relative_performances[index]
                )
        h_dim = self._basis.h_dim
        for key, rows in design_rows.items():
            design = np.vstack(rows)
            target = np.array(targets[key], dtype=float)
            # Sub-chip pools crush bandwidth-bound victims to tiny RPerf
            # values; plain least squares all but ignores those rows (their
            # absolute residuals are small by construction) and the
            # *relative* error — the paper's accuracy metric — explodes.
            # Weighting each row by 1/RPerf makes the fit minimize the
            # relative residual instead.  Full-GI fits are untouched.
            weights = 1.0 / np.maximum(target, _RELATIVE_WEIGHT_FLOOR)
            coefficients = self._least_squares(
                design * weights[:, None], target * weights
            )
            model.set_scalability_coefficients(key, coefficients[:h_dim])
            model.set_interference_coefficients(key, coefficients[h_dim:])
            residual = design @ coefficients - target
            report.mixed_residuals[key] = float(np.sqrt(np.mean(residual**2)))
        self.last_report = report
        return model

    # ------------------------------------------------------------------
    # Stage 4: full-chip composition (N ≥ 3 shared) correction
    # ------------------------------------------------------------------
    def fit_composition(
        self,
        measurements: Sequence[CoRunMeasurement],
        model: LinearPerfModel,
    ) -> LinearPerfModel:
        """Fit the full-chip composition correction from N≥3 shared runs.

        The pair-fitted full-chip shared model composes co-runners
        additively, so with three or more applications the summed ``J``
        terms overshoot exactly where the chip-wide pool clips.  This
        stage regresses the *residual* of the pair-era prediction
        (``C·H + Σ_j D·J_j``, unclamped) on the capacity-aware basis at
        ``q = 1`` — the servable-fraction-scaled victim ``H`` block
        followed by the saturating/excess pool terms, the same layout the
        sub-chip keys append to ``D`` (key schema v3).  Pair predictions
        are bit-identical by construction: the correction only evaluates
        when an application sees two or more co-runners, and the pair
        ``C``/``D`` vectors are never touched.  Rows are weighted by the
        reciprocal measured RPerf (floored), mirroring :meth:`fit_mixed`,
        so the paper's relative-error metric is what the fit minimizes.
        """
        report = self.last_report or TrainingReport()
        j_dim = self._basis.j_dim
        design_rows: dict[HardwareStateKey, list[np.ndarray]] = {}
        targets: dict[HardwareStateKey, list[float]] = {}
        weights_rows: dict[HardwareStateKey, list[float]] = {}
        for measurement in measurements:
            if measurement.state.option is not MemoryOption.SHARED:
                continue
            if measurement.state.n_apps <= 2:
                continue
            for index in range(measurement.state.n_apps):
                key = HardwareStateKey.from_state(
                    measurement.state, index, measurement.power_cap_w, self._spec
                )
                if model.is_sub_chip_shared(key):
                    continue
                if not model.has_scalability(key) or not model.has_interference(key):
                    continue
                own_counters = measurement.counters[index]
                others = [
                    measurement.counters[j]
                    for j in measurement.state.interference_partners(index)
                ]
                base = float(
                    model.scalability_coefficients(key)
                    @ self._basis.h(own_counters)
                )
                d = model.interference_coefficients(key)
                for other in others:
                    base += float(d[:j_dim] @ self._basis.j(other))
                measured = measurement.relative_performances[index]
                victim_demand = dram_demand(own_counters)
                co_runner_demand = sum(dram_demand(other) for other in others)
                pool_fraction = model.pool_fraction(key)
                servable = servable_fraction(
                    victim_demand, co_runner_demand, pool_fraction
                )
                pool = pool_saturation_terms(
                    victim_demand, co_runner_demand, pool_fraction
                )
                own = self._basis.h(own_counters)
                design_rows.setdefault(key, []).append(
                    np.concatenate([servable * own, pool])
                )
                targets.setdefault(key, []).append(measured - base)
                weights_rows.setdefault(key, []).append(
                    1.0 / max(measured, _RELATIVE_WEIGHT_FLOOR)
                )
        for key, rows in design_rows.items():
            design = np.vstack(rows)
            target = np.array(targets[key], dtype=float)
            weights = np.array(weights_rows[key], dtype=float)
            coefficients = self._least_squares(
                design * weights[:, None], target * weights
            )
            model.set_composition_coefficients(key, coefficients)
            residual = design @ coefficients - target
            report.composition_residuals[key] = float(
                np.sqrt(np.mean(residual**2))
            )
        self.last_report = report
        return model

    # ------------------------------------------------------------------
    def train(
        self,
        solo_measurements: Sequence[SoloMeasurement],
        corun_measurements: Sequence[CoRunMeasurement] = (),
    ) -> LinearPerfModel:
        """Run every calibration stage and return the fitted model."""
        self.last_report = TrainingReport()
        model = self.fit_scalability(solo_measurements)
        if corun_measurements:
            model = self.fit_interference(corun_measurements, model)
            model = self.fit_mixed(corun_measurements, model)
            model = self.fit_composition(corun_measurements, model)
        return model


# ----------------------------------------------------------------------
# Measurement collection (driving the simulator, as the paper drives the GPU)
# ----------------------------------------------------------------------
def collect_solo_measurements(
    simulator: PerformanceSimulator,
    kernels: Iterable[KernelCharacteristics],
    gpc_counts: Sequence[int] = SCALABILITY_GPC_COUNTS,
    options: Sequence[MemoryOption] = (MemoryOption.PRIVATE, MemoryOption.SHARED),
    power_caps: Sequence[float] = DEFAULT_POWER_CAPS,
) -> list[SoloMeasurement]:
    """Execute the solo training sweep and return its measurements.

    The whole sweep is one :meth:`PerformanceSimulator.co_run_batch` call;
    the measurements come out in sweep order.
    """
    sweep: list[
        tuple[KernelCharacteristics, CounterVector, PartitionState, int, float, int]
    ] = []
    for kernel in kernels:
        counters = simulator.profile(kernel)
        for option in options:
            for gpcs in gpc_counts:
                state = solo_state(gpcs, option)
                mem_slices = state.mem_slices_for(0, simulator.spec)
                for power_cap in power_caps:
                    sweep.append((kernel, counters, state, gpcs, power_cap, mem_slices))
    runs = simulator.co_run_batch(
        [((kernel,), state, power_cap) for kernel, _, state, _, power_cap, _ in sweep]
    )
    return [
        SoloMeasurement(
            kernel_name=kernel.name,
            counters=counters,
            gpcs=gpcs,
            option=state.option,
            power_cap_w=float(power_cap),
            relative_performance=run.per_app[0].relative_performance,
            mem_slices=mem_slices,
        )
        for (kernel, counters, state, gpcs, power_cap, mem_slices), run in zip(sweep, runs)
    ]


def collect_corun_measurements(
    simulator: PerformanceSimulator,
    kernel_pairs: Iterable[tuple[KernelCharacteristics, ...]],
    states: Sequence[PartitionState] = CORUN_STATES,
    power_caps: Sequence[float] = DEFAULT_POWER_CAPS,
) -> list[CoRunMeasurement]:
    """Execute the co-run training sweep and return its measurements.

    ``kernel_pairs`` may contain groups of any size; each group is only run
    under the states describing the same number of applications, so a mixed
    collection of pair and N-way training workloads can share one grid.
    The whole sweep is one :meth:`PerformanceSimulator.co_run_batch` call;
    the measurements come out in sweep order.
    """
    sweep: list[
        tuple[
            tuple[KernelCharacteristics, ...],
            tuple[str, ...],
            tuple[CounterVector, ...],
            PartitionState,
            float,
        ]
    ] = []
    for kernels in kernel_pairs:
        counters = tuple(simulator.profile(kernel) for kernel in kernels)
        names = tuple(kernel.name for kernel in kernels)
        for state in states:
            if state.n_apps != len(kernels):
                continue
            for power_cap in power_caps:
                sweep.append((tuple(kernels), names, counters, state, power_cap))
    results = simulator.co_run_batch(
        [(kernels, state, power_cap) for kernels, _, _, state, power_cap in sweep]
    )
    return [
        CoRunMeasurement(
            kernel_names=names,
            counters=counters,
            state=state,
            power_cap_w=float(power_cap),
            relative_performances=result.relative_performances,
        )
        for (_, names, counters, state, power_cap), result in zip(sweep, results)
    ]
