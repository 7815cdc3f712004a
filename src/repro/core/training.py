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
keeps full-GI predictions bit-identical to the two-stage fit.  A fourth
stage fits the full-chip *composition* correction from N≥3 shared runs.

The co-run stages read one columnar row table (one row per measurement ×
application), built once per :meth:`ModelTrainer.train` call: keys and
interference partners are derived once per distinct (state, power cap),
and the basis features once per distinct counter vector.  Each stage
gathers a key's rows by array indexing, in measurement-then-application
order, and sums partner ``J`` features left to right (as
``np.sum(..., axis=0)`` does) and partner DRAM demands as the built-in
``sum`` does, so its design matrix — and the least-squares solve over
it — is bit-identical to one built row by row.

All stages work purely on measurement records, so they can equally be fed
from the simulator (this reproduction) or from real hardware runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.config import DEFAULT_POWER_CAPS, SCALABILITY_GPC_COUNTS
from repro.core.features import (
    DEFAULT_BASIS,
    BasisFunctions,
    capacity_terms,
    dram_demand,
)
from repro.core.model import HardwareStateKey, LinearPerfModel
from repro.errors import ModelError
from repro.gpu.mig import CORUN_STATES, MemoryOption, PartitionState, solo_state
from repro.gpu.spec import A100_SPEC, GPUSpec
from repro.numerics import builtin_sum
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

    counters: tuple[CounterVector, ...]
    state: PartitionState
    power_cap_w: float
    relative_performances: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (
            len(self.counters) == len(self.relative_performances) == self.state.n_apps
        ):
            raise ModelError(
                "co-run measurement is inconsistent: "
                f"{len(self.counters)} profiles, "
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


#: Integer code of each memory option in the row table's option column.
_OPTION_CODES: dict[MemoryOption, int] = {
    option: code for code, option in enumerate(MemoryOption)
}


class _CoRunTable:
    """Co-run measurements as one row per (measurement, application).

    Hardware-state keys and interference partners are derived once per
    distinct (state, power cap), and the basis features and DRAM demand
    once per distinct counter vector.  A row holds integer ids into those
    tables (its key, its own counters, its partners' counters padded with
    ``-1``), its measurement's option code and application count, and the
    measured RPerf.  Rows keep measurement-then-application order, so the
    rows of one key, gathered by array indexing, come out in the order a
    per-row loop would append them and every design matrix is
    bit-identical to one built row by row.
    """

    def __init__(
        self,
        measurements: Sequence[CoRunMeasurement],
        basis: BasisFunctions,
        spec: GPUSpec,
    ) -> None:
        self.n_measurements = len(measurements)
        width = max((m.state.n_apps for m in measurements), default=1)
        key_ids: dict[HardwareStateKey, int] = {}
        counter_ids: dict[CounterVector, int] = {}
        # Per (state, cap): each application's key id, its partners'
        # positions (padded with ``width``, a column that always holds -1)
        # and its partner count.
        layouts: dict[
            tuple[PartitionState, float],
            tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]],
        ] = {}
        profiles: dict[tuple[CounterVector, ...], tuple[int, ...]] = {}
        measurement_col: list[int] = []
        app_col: list[int] = []
        key_col: list[int] = []
        position_rows: list[tuple[int, ...]] = []
        count_col: list[int] = []
        rperf_col: list[float] = []
        profile_rows: list[tuple[int, ...]] = []
        option_col: list[int] = []
        n_apps_col: list[int] = []
        for index, measurement in enumerate(measurements):
            state = measurement.state
            n_apps = state.n_apps
            layout = layouts.get((state, measurement.power_cap_w))
            if layout is None:
                keys, positions, counts = [], [], []
                for app in range(n_apps):
                    key = HardwareStateKey.from_state(
                        state, app, measurement.power_cap_w, spec
                    )
                    partners = state.interference_partners(app)
                    keys.append(key_ids.setdefault(key, len(key_ids)))
                    positions.append(
                        partners + (width,) * (width - 1 - len(partners))
                    )
                    counts.append(len(partners))
                layout = (tuple(keys), tuple(positions), tuple(counts))
                layouts[(state, measurement.power_cap_w)] = layout
            ids = profiles.get(measurement.counters)
            if ids is None:
                ids = tuple(
                    counter_ids.setdefault(counters, len(counter_ids))
                    for counters in measurement.counters
                )
                profiles[measurement.counters] = ids
            measurement_col.extend([index] * n_apps)
            app_col.extend(range(n_apps))
            key_col.extend(layout[0])
            position_rows.extend(layout[1])
            count_col.extend(layout[2])
            rperf_col.extend(measurement.relative_performances)
            profile_rows.append(ids + (-1,) * (width + 1 - n_apps))
            option_col.append(_OPTION_CODES[state.option])
            n_apps_col.append(n_apps)

        rows = np.array(measurement_col, dtype=np.intp)
        profile = np.array(profile_rows, dtype=np.intp).reshape(-1, width + 1)
        positions_of = np.array(position_rows, dtype=np.intp).reshape(
            len(rows), width - 1
        )
        self.keys: tuple[HardwareStateKey, ...] = tuple(key_ids)
        self.counters: tuple[CounterVector, ...] = tuple(counter_ids)
        self.key = np.array(key_col, dtype=np.intp)
        self.victim = profile[rows, np.array(app_col, dtype=np.intp)]
        self.partners = profile[rows[:, None], positions_of]
        self.n_partners = np.array(count_col, dtype=np.intp)
        self.option = np.array(option_col, dtype=np.intp)[rows]
        self.n_apps = np.array(n_apps_col, dtype=np.intp)[rows]
        self.rperf = np.array(rperf_col, dtype=float)
        # Standalone feature vectors feed the scalar dot products (the same
        # arrays a per-row loop would build); the stacked tables feed the
        # elementwise design columns.
        self.h_rows = [basis.h(counters) for counters in self.counters]
        self.j_rows = [basis.j(counters) for counters in self.counters]
        self.h = np.array(self.h_rows, dtype=float).reshape(-1, basis.h_dim)
        self.j = np.array(self.j_rows, dtype=float).reshape(-1, basis.j_dim)
        self.demand = np.array([dram_demand(c) for c in self.counters], dtype=float)

    def groups(self, rows: np.ndarray) -> list[tuple[HardwareStateKey, np.ndarray]]:
        """Positions within ``rows`` per key, keys in first-appearance order."""
        if rows.size == 0:
            return []
        key_ids = self.key[rows]
        order = np.argsort(key_ids, kind="stable")
        _, starts = np.unique(key_ids[order], return_index=True)
        spans = sorted(np.split(order, starts[1:]), key=lambda span: span[0])
        return [(self.keys[key_ids[span[0]]], span) for span in spans]

    def partner_j(self, rows: np.ndarray) -> np.ndarray:
        """Each row's partners' ``J`` features, summed.

        Adds partner by partner onto ``0.0``, the order of
        ``np.sum(j_matrix(others), axis=0)``, so every sum matches the
        per-row one bit for bit.
        """
        partners = self.partners[rows]
        counts = self.n_partners[rows]
        total = np.zeros((len(rows), self.j.shape[1]), dtype=float)
        for slot in range(partners.shape[1]):
            more = counts > slot
            total[more] += self.j[partners[more, slot]]
        return total

    def partner_demand(self, rows: np.ndarray) -> np.ndarray:
        """Each row's co-runner DRAM demand, summed over its partners.

        Adds the way the built-in ``sum(dram_demand(o) for o in others)``
        does (:func:`~repro.numerics.builtin_sum`: compensated from
        CPython 3.12).  Absent partners count as ``0.0``, which changes
        neither total.
        """
        partners = self.partners[rows]
        if partners.shape[1] == 0:
            return np.zeros(len(rows))
        demand = np.where(partners >= 0, self.demand[partners], 0.0)
        return builtin_sum(demand.T)

    def per_pair(
        self,
        counter_ids: np.ndarray,
        key_ids: np.ndarray,
        value: Callable[[int, int], float],
    ) -> np.ndarray:
        """``value(counter id, key id)`` per entry, once per distinct pair.

        Pairs are evaluated in first-appearance order, so an unfitted key
        raises at the row a per-row loop would have raised it.
        """
        n_keys = len(self.keys)
        unique, first, inverse = np.unique(
            counter_ids * n_keys + key_ids, return_index=True, return_inverse=True
        )
        values = np.empty(len(unique), dtype=float)
        for slot in np.argsort(first):
            counter_id, key_id = divmod(int(unique[slot]), n_keys)
            values[slot] = value(counter_id, key_id)
        return values[inverse]


class ModelTrainer:
    """Least-squares calibration of :class:`~repro.core.model.LinearPerfModel`."""

    def __init__(
        self,
        basis: BasisFunctions = DEFAULT_BASIS,
        ridge: float = 1e-6,
        spec: GPUSpec = A100_SPEC,
    ) -> None:
        if not math.isfinite(ridge) or ridge < 0:
            raise ModelError(f"ridge parameter must be finite and >= 0, got {ridge}")
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
    # Low-level regression helpers
    # ------------------------------------------------------------------
    def _least_squares(self, design: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Ridge-stabilised least squares (the well-known normal equations)."""
        if design.shape[0] == 0:
            raise ModelError("cannot fit coefficients from zero measurements")
        gram = design.T @ design + self._ridge * np.eye(design.shape[1])
        return np.linalg.solve(gram, design.T @ target)

    def _fit_rows(
        self,
        design: np.ndarray,
        target: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> tuple[np.ndarray, float]:
        """One key's coefficients and the RMS residual over its rows.

        ``weights`` scales each row of the regression (not the residual).
        """
        if weights is None:
            coefficients = self._least_squares(design, target)
        else:
            coefficients = self._least_squares(
                design * weights[:, None], target * weights
            )
        residual = design @ coefficients - target
        return coefficients, float(np.sqrt(np.mean(residual**2)))

    # ------------------------------------------------------------------
    # Stage 1: scalability term
    # ------------------------------------------------------------------
    def fit_scalability(
        self,
        measurements: Sequence[SoloMeasurement],
    ) -> LinearPerfModel:
        """Fit ``C(S, P)`` for every hardware state present in ``measurements``."""
        if not measurements:
            raise ModelError(
                "cannot fit the scalability term from zero solo measurements"
            )
        model = LinearPerfModel(self._basis, spec=self._spec)
        report = self.last_report or TrainingReport()
        report.n_solo_measurements += len(measurements)
        grouped: dict[HardwareStateKey, list[SoloMeasurement]] = {}
        for measurement in measurements:
            grouped.setdefault(measurement.key, []).append(measurement)
        for key, group in grouped.items():
            coefficients, rms = self._fit_rows(
                self._basis.h_matrix([m.counters for m in group]),
                np.array([m.relative_performance for m in group], dtype=float),
            )
            model.set_scalability_coefficients(key, coefficients)
            report.scalability_residuals[key] = rms
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

        Each row regresses an application's residual (measured RPerf minus
        its scalability prediction) on the summed ``J`` features of its
        interference partners.  Mixed-state measurements are excluded:
        their sub-chip shared keys have no solo-swept scalability term to
        take residuals against, and even their private-GI rows must not
        perturb the pair-era residual regressions (full-GI coefficients
        stay bit-identical to a training run without mixed states).  They
        are consumed by :meth:`fit_mixed`.  N≥3 full-chip shared
        measurements are likewise excluded — folding their rows into the
        residual regression would move the pair-era ``D`` vectors; they
        feed :meth:`fit_composition` instead.
        """
        return self._fit_interference(
            _CoRunTable(measurements, self._basis, self._spec), model
        )

    def _fit_interference(
        self, table: _CoRunTable, model: LinearPerfModel
    ) -> LinearPerfModel:
        report = self.last_report or TrainingReport()
        report.n_corun_measurements += table.n_measurements
        full_chip_nway = (table.option == _OPTION_CODES[MemoryOption.SHARED]) & (
            table.n_apps > 2
        )
        rows = np.flatnonzero(
            (table.option != _OPTION_CODES[MemoryOption.MIXED])
            & ~full_chip_nway
            & (table.n_partners > 0)
        )
        scalability = table.per_pair(
            table.victim[rows],
            table.key[rows],
            lambda counter, key: model.predict_solo(
                table.counters[counter], table.keys[key]
            ),
        )
        target = table.rperf[rows] - scalability
        # The interference contribution of several co-runners is the sum of
        # their J features.
        design = table.partner_j(rows)
        for key, span in table.groups(rows):
            coefficients, rms = self._fit_rows(design[span], target[span])
            model.set_interference_coefficients(key, coefficients)
            report.interference_residuals[key] = rms
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
        return self._fit_mixed(
            _CoRunTable(measurements, self._basis, self._spec), model
        )

    def _fit_mixed(
        self, table: _CoRunTable, model: LinearPerfModel
    ) -> LinearPerfModel:
        report = self.last_report or TrainingReport()
        # Only sub-chip shared keys are fitted here.  An application alone
        # in its GI carries a plain PRIVATE key: if the solo sweep covered
        # it the coefficients must stay untouched, and if it did not,
        # fitting it from cross-GI co-runner rows would silently produce
        # wrong private-key coefficients — leaving it unfitted raises the
        # honest NotFittedError.
        fitted_here = np.array(
            [
                model.is_sub_chip_shared(key) and not model.has_scalability(key)
                for key in table.keys
            ],
            dtype=bool,
        )
        rows = np.flatnonzero(
            (table.option == _OPTION_CODES[MemoryOption.MIXED])
            & fitted_here[table.key]
        )
        victim = table.victim[rows]
        own = table.h[victim]
        # Every key here is sub-chip shared, where the victim-side scale
        # (LinearPerfModel.interference_scale) is the victim's DRAM demand.
        victim_demand = table.demand[victim]
        pool_fraction = np.array(
            [model.pool_fraction(key) for key in table.keys], dtype=float
        )[table.key[rows]]
        capacity = capacity_terms(
            victim_demand, table.partner_demand(rows), pool_fraction
        )
        design = np.hstack(
            [
                own,
                victim_demand[:, None] * table.partner_j(rows),
                capacity[:, :1] * own,
                capacity[:, 1:],
            ]
        )
        target = table.rperf[rows]
        # Sub-chip pools crush bandwidth-bound victims to tiny RPerf values;
        # plain least squares all but ignores those rows (their absolute
        # residuals are small by construction) and the *relative* error —
        # the paper's accuracy metric — explodes.  Weighting each row by
        # 1/RPerf makes the fit minimize the relative residual instead.
        # Full-GI fits are untouched.
        weights = 1.0 / np.maximum(target, _RELATIVE_WEIGHT_FLOOR)
        h_dim = self._basis.h_dim
        for key, span in table.groups(rows):
            coefficients, rms = self._fit_rows(
                design[span], target[span], weights[span]
            )
            model.set_scalability_coefficients(key, coefficients[:h_dim])
            model.set_interference_coefficients(key, coefficients[h_dim:])
            report.mixed_residuals[key] = rms
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
        return self._fit_composition(
            _CoRunTable(measurements, self._basis, self._spec), model
        )

    def _fit_composition(
        self, table: _CoRunTable, model: LinearPerfModel
    ) -> LinearPerfModel:
        report = self.last_report or TrainingReport()
        j_dim = self._basis.j_dim
        fitted_here = np.array(
            [
                not model.is_sub_chip_shared(key)
                and model.has_scalability(key)
                and model.has_interference(key)
                for key in table.keys
            ],
            dtype=bool,
        )
        rows = np.flatnonzero(
            (table.option == _OPTION_CODES[MemoryOption.SHARED])
            & (table.n_apps > 2)
            & fitted_here[table.key]
        )
        key_ids = table.key[rows]
        victim = table.victim[rows]
        c = {
            k: model.scalability_coefficients(table.keys[k])
            for k in np.unique(key_ids).tolist()
        }
        d = {k: model.interference_coefficients(table.keys[k])[:j_dim] for k in c}
        # The pair-era prediction, added up as scalar dot products in the
        # order the model evaluates it: C·H(F_i), then D·J(F_j) per partner.
        base = table.per_pair(
            victim,
            key_ids,
            lambda counter, key: float(c[key] @ table.h_rows[counter]),
        )
        partners = table.partners[rows]
        filled = np.arange(partners.shape[1]) < table.n_partners[rows][:, None]
        partner_terms = np.zeros(partners.shape, dtype=float)
        partner_terms[filled] = table.per_pair(
            partners[filled],
            np.broadcast_to(key_ids[:, None], partners.shape)[filled],
            lambda counter, key: float(d[key] @ table.j_rows[counter]),
        )
        for slot in range(partners.shape[1]):
            base[filled[:, slot]] += partner_terms[filled[:, slot], slot]
        own = table.h[victim]
        pool_fraction = np.array(
            [model.pool_fraction(key) for key in table.keys], dtype=float
        )[key_ids]
        capacity = capacity_terms(
            table.demand[victim], table.partner_demand(rows), pool_fraction
        )
        design = np.hstack([capacity[:, :1] * own, capacity[:, 1:]])
        measured = table.rperf[rows]
        target = measured - base
        weights = 1.0 / np.maximum(measured, _RELATIVE_WEIGHT_FLOOR)
        for key, span in table.groups(rows):
            coefficients, rms = self._fit_rows(
                design[span], target[span], weights[span]
            )
            model.set_composition_coefficients(key, coefficients)
            report.composition_residuals[key] = rms
        self.last_report = report
        return model

    # ------------------------------------------------------------------
    def train(
        self,
        solo_measurements: Sequence[SoloMeasurement],
        corun_measurements: Sequence[CoRunMeasurement] = (),
    ) -> LinearPerfModel:
        """Run every calibration stage and return the fitted model.

        The co-run stages share one row table, built once per call.
        """
        self.last_report = TrainingReport()
        model = self.fit_scalability(solo_measurements)
        if corun_measurements:
            table = _CoRunTable(corun_measurements, self._basis, self._spec)
            model = self._fit_interference(table, model)
            model = self._fit_mixed(table, model)
            model = self._fit_composition(table, model)
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

    The whole sweep is one :meth:`PerformanceSimulator.co_run_batch` call,
    read through its RPerf column; the measurements come out in sweep order.
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
    column = simulator.co_run_batch(
        [((kernel,), state, power_cap) for kernel, _, state, _, power_cap, _ in sweep]
    ).relative_performances
    return [
        SoloMeasurement(
            kernel_name=kernel.name,
            counters=counters,
            gpcs=gpcs,
            option=state.option,
            power_cap_w=float(power_cap),
            relative_performance=rperf,
            mem_slices=mem_slices,
        )
        for (kernel, counters, state, gpcs, power_cap, mem_slices), (rperf,) in zip(sweep, column)
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
    The whole sweep is one :meth:`PerformanceSimulator.co_run_batch` call,
    read through its RPerf column; the measurements come out in sweep order.
    """
    sweep: list[
        tuple[tuple[KernelCharacteristics, ...], tuple[CounterVector, ...], PartitionState, float]
    ] = []
    for kernels in kernel_pairs:
        counters = tuple(simulator.profile(kernel) for kernel in kernels)
        for state in states:
            if state.n_apps != len(kernels):
                continue
            for power_cap in power_caps:
                sweep.append((tuple(kernels), counters, state, power_cap))
    column = simulator.co_run_batch(
        [(kernels, state, power_cap) for kernels, _, state, power_cap in sweep]
    ).relative_performances
    return [
        CoRunMeasurement(
            counters=counters,
            state=state,
            power_cap_w=float(power_cap),
            relative_performances=rperfs,
        )
        for (_, counters, state, power_cap), rperfs in zip(sweep, column)
    ]
