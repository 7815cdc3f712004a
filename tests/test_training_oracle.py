"""The columnar co-run fit against the per-row fit it replaced.

:class:`ModelTrainer` fits the interference, mixed and composition stages
from one row table whose design matrices are gathered by array indexing.
:class:`ReferenceTrainer` keeps the per-row loops as the reference: every
coefficient array, the key order of the three coefficient tables, and the
four residual tables of the training report must match it byte for byte.
The reference totals partner DRAM demands with the built-in ``sum``, which
adds left to right before CPython 3.12 and Neumaier-compensated from 3.12;
both behaviours are checked on every interpreter.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np
import pytest

from repro.core.features import (
    DEFAULT_BASIS,
    RAW_COUNTER_BASIS,
    dram_demand,
    pool_saturation_terms,
    servable_fraction,
)
import repro.core.training as training_module
from repro.core.model import HardwareStateKey, LinearPerfModel
from repro.core.training import (
    _RELATIVE_WEIGHT_FLOOR,
    CoRunMeasurement,
    ModelTrainer,
    TrainingReport,
    collect_solo_measurements,
)
from repro.core.workflow import OfflineTrainer, TrainingPlan, power_caps_for_spec
from repro.gpu.mig import MemoryOption, PartitionState
from repro.gpu.spec import A100_SPEC, GPU_SPECS
from repro.numerics import builtin_sum
from repro.sim.engine import PerformanceSimulator
from repro.sim.noise import no_noise
from repro.workloads.suite import DEFAULT_SUITE


class ReferenceTrainer(ModelTrainer):
    """The per-row co-run stages: one Python iteration per application."""

    def train(self, solo_measurements, corun_measurements=()):
        self.last_report = TrainingReport()
        model = self.fit_scalability(solo_measurements)
        if corun_measurements:
            model = self.fit_interference(corun_measurements, model)
            model = self.fit_mixed(corun_measurements, model)
            model = self.fit_composition(corun_measurements, model)
        return model

    def fit_interference(self, measurements, model):
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
                others = [
                    measurement.counters[j]
                    for j in measurement.state.interference_partners(index)
                ]
                if not others:
                    continue
                scalability = model.predict_solo(measurement.counters[index], key)
                residual = measurement.relative_performances[index] - scalability
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

    def fit_mixed(self, measurements, model):
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
                servable = servable_fraction(victim_demand, co_runner_demand, pool_fraction)
                pool = pool_saturation_terms(victim_demand, co_runner_demand, pool_fraction)
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
            weights = 1.0 / np.maximum(target, _RELATIVE_WEIGHT_FLOOR)
            coefficients = self._least_squares(design * weights[:, None], target * weights)
            model.set_scalability_coefficients(key, coefficients[:h_dim])
            model.set_interference_coefficients(key, coefficients[h_dim:])
            residual = design @ coefficients - target
            report.mixed_residuals[key] = float(np.sqrt(np.mean(residual**2)))
        self.last_report = report
        return model

    def fit_composition(self, measurements, model):
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
                    model.scalability_coefficients(key) @ self._basis.h(own_counters)
                )
                d = model.interference_coefficients(key)
                for other in others:
                    base += float(d[:j_dim] @ self._basis.j(other))
                measured = measurement.relative_performances[index]
                victim_demand = dram_demand(own_counters)
                co_runner_demand = sum(dram_demand(other) for other in others)
                pool_fraction = model.pool_fraction(key)
                servable = servable_fraction(victim_demand, co_runner_demand, pool_fraction)
                pool = pool_saturation_terms(victim_demand, co_runner_demand, pool_fraction)
                own = self._basis.h(own_counters)
                design_rows.setdefault(key, []).append(np.concatenate([servable * own, pool]))
                targets.setdefault(key, []).append(measured - base)
                weights_rows.setdefault(key, []).append(
                    1.0 / max(measured, _RELATIVE_WEIGHT_FLOOR)
                )
        for key, rows in design_rows.items():
            design = np.vstack(rows)
            target = np.array(targets[key], dtype=float)
            weights = np.array(weights_rows[key], dtype=float)
            coefficients = self._least_squares(design * weights[:, None], target * weights)
            model.set_composition_coefficients(key, coefficients)
            residual = design @ coefficients - target
            report.composition_residuals[key] = float(np.sqrt(np.mean(residual**2)))
        self.last_report = report
        return model


def _fit_bytes(model: LinearPerfModel, report: TrainingReport) -> dict:
    """Every fitted number, exactly, with the order of every table."""
    document = model.to_dict()
    tables = {
        name: [
            (
                (entry["gpcs"], entry["mem_slices"], entry["option"], entry["power_cap_w"]),
                np.array(entry["coefficients"], dtype=float).tobytes(),
            )
            for entry in document[name]
        ]
        for name in ("scalability", "interference", "composition")
    }
    residuals = {
        name: [(key, value.hex()) for key, value in getattr(report, name).items()]
        for name in (
            "scalability_residuals",
            "interference_residuals",
            "mixed_residuals",
            "composition_residuals",
        )
    }
    counts = (report.n_solo_measurements, report.n_corun_measurements)
    return {"tables": tables, "residuals": residuals, "counts": counts}


def _assert_matches_reference(solo, corun, basis, spec) -> dict:
    columnar = ModelTrainer(basis, spec=spec)
    reference = ReferenceTrainer(basis, spec=spec)
    got = _fit_bytes(columnar.train(solo, corun), columnar.last_report)
    want = _fit_bytes(reference.train(solo, corun), reference.last_report)
    assert got["counts"] == want["counts"]
    for name, table in want["tables"].items():
        assert [key for key, _ in got["tables"][name]] == [key for key, _ in table], name
        assert got["tables"][name] == table, name
    assert got["residuals"] == want["residuals"]
    assert want["tables"]["interference"], "the case must exercise the co-run fit"
    return want


def _plan_measurements(monkeypatch, spec, plan, noise, basis):
    """The solo and co-run measurements an OfflineTrainer run would fit."""
    captured = []

    def capture(self, solo, corun=()):
        captured.append((list(solo), list(corun)))
        return LinearPerfModel(self.basis, spec=self.spec)

    simulator = PerformanceSimulator(spec, noise=noise)
    with monkeypatch.context() as patch:
        patch.setattr(ModelTrainer, "train", capture)
        OfflineTrainer(simulator, plan=plan, basis=basis).run()
    return captured[0]


def _plan(spec, grid):
    if grid == "pairs":
        return TrainingPlan()
    if grid == "reduced":
        return TrainingPlan.for_spec(spec, power_caps=power_caps_for_spec(spec)[-2:])
    return TrainingPlan.for_spec(spec)


@pytest.mark.parametrize(
    "spec_name, grid, noise, basis",
    [
        ("a100", "nway", None, DEFAULT_BASIS),
        ("a100", "nway", no_noise(), DEFAULT_BASIS),
        ("a100", "pairs", None, DEFAULT_BASIS),
        ("h100", "reduced", None, DEFAULT_BASIS),
        ("a30", "reduced", None, DEFAULT_BASIS),
        ("mi300x", "reduced", None, DEFAULT_BASIS),
        ("a100", "reduced", None, RAW_COUNTER_BASIS),
    ],
    ids=[
        "a100-nway",
        "a100-nway-no-noise",
        "a100-pairs",
        "h100-reduced",
        "a30-reduced",
        "mi300x-reduced",
        "a100-raw-counter-basis",
    ],
)
def test_columnar_fit_matches_the_per_row_reference(
    monkeypatch, spec_name, grid, noise, basis
):
    spec = GPU_SPECS[spec_name]
    solo, corun = _plan_measurements(monkeypatch, spec, _plan(spec, grid), noise, basis)
    _assert_matches_reference(solo, corun, basis, spec)


#: Four- and five-application states: a victim with three interference
#: partners in every co-run stage (private and full-chip shared N-way rows,
#: and a four-member sub-chip shared GI), which no default plan reaches.
#: The mixed state goes first, so its lone application's private key
#: appears before the pair keys overall but after them among the
#: interference rows: each stage must order its keys by its own rows.
_WIDE_STATES = (
    PartitionState((1, 1, 1, 1, 1), MemoryOption.MIXED, gi_groups=(0, 0, 0, 0, 1)),
    PartitionState((1, 1), MemoryOption.SHARED),
    PartitionState((1, 1, 1, 1), MemoryOption.PRIVATE),
    PartitionState((1, 1, 1, 1), MemoryOption.SHARED),
)


def _wide_measurements():
    """Simulated solo runs plus hand-built co-runs with random RPerf."""
    caps = (190.0, 250.0)
    kernels = [DEFAULT_SUITE.get(name) for name in DEFAULT_SUITE.names()]
    simulator = PerformanceSimulator(noise=no_noise())
    solo = collect_solo_measurements(
        simulator,
        kernels,
        gpc_counts=(1,),
        options=(MemoryOption.PRIVATE, MemoryOption.SHARED),
        power_caps=caps,
    )
    rng = random.Random(14)
    corun = []
    for _ in range(12):
        for state in _WIDE_STATES:
            group = rng.sample(kernels, state.n_apps)
            counters = tuple(simulator.profile(kernel) for kernel in group)
            for cap in caps:
                corun.append(
                    CoRunMeasurement(
                        counters=counters,
                        state=state,
                        power_cap_w=cap,
                        relative_performances=tuple(
                            rng.uniform(0.0005, 1.0) for _ in group
                        ),
                    )
                )
    return solo, corun


def test_three_partner_rows_match_the_per_row_reference():
    solo, corun = _wide_measurements()
    fit = _assert_matches_reference(solo, corun, DEFAULT_BASIS, A100_SPEC)
    assert fit["residuals"]["mixed_residuals"]
    assert fit["residuals"]["composition_residuals"]


def test_public_stages_match_train():
    solo, corun = _wide_measurements()
    staged = ModelTrainer()
    model = staged.fit_scalability(solo)
    for stage in (staged.fit_interference, staged.fit_mixed, staged.fit_composition):
        model = stage(corun, model)
    trained = ModelTrainer()
    assert _fit_bytes(model, staged.last_report) == _fit_bytes(
        trained.train(solo, corun), trained.last_report
    )


def _left_to_right_sum(values):
    # The built-in float ``sum`` before CPython 3.12.
    total = 0
    for x in values:
        total += x
    return total


def _neumaier_sum(values):
    # The built-in float ``sum`` from CPython 3.12 (Objects/bltinmodule.c).
    values = list(values)
    if not values:
        return 0
    total, compensation = 0 + values[0], 0.0
    for x in values[1:]:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_demand_sums_follow_the_interpreter_both_ways(monkeypatch):
    solo, corun = _wide_measurements()
    fits = []
    for compensated, interpreter_sum in ((False, _left_to_right_sum), (True, _neumaier_sum)):
        with monkeypatch.context() as patch:
            patch.setattr(
                training_module,
                "builtin_sum",
                functools.partial(builtin_sum, compensated=compensated),
            )
            # Shadows the built-in for the reference's ``sum(...)`` calls.
            patch.setitem(globals(), "sum", interpreter_sum)
            fits.append(_assert_matches_reference(solo, corun, DEFAULT_BASIS, A100_SPEC))
    # The three-partner rows must tell the two summation orders apart.
    assert fits[0]["tables"] != fits[1]["tables"]
