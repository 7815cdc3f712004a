"""Tests for the least-squares calibration (training) of the model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import HardwareStateKey
from repro.core.training import (
    CoRunMeasurement,
    ModelTrainer,
    SoloMeasurement,
    collect_corun_measurements,
    collect_solo_measurements,
)
from repro.errors import ModelError
from repro.gpu.mig import CORUN_STATES, MemoryOption, S1
from repro.sim.counters import collect_counters
from repro.workloads.pairs import corun_pair
from repro.workloads.suite import DEFAULT_SUITE


def solo_measurement(name, rperf, gpcs=4, option=MemoryOption.SHARED, power=250.0, mem_slices=8):
    return SoloMeasurement(
        kernel_name=name,
        counters=collect_counters(DEFAULT_SUITE.get(name)),
        gpcs=gpcs,
        option=option,
        power_cap_w=power,
        relative_performance=rperf,
        mem_slices=mem_slices,
    )


class TestMeasurementRecords:
    def test_solo_measurement_key(self):
        measurement = solo_measurement("dgemm", 0.5)
        assert measurement.key == HardwareStateKey(4, 8, MemoryOption.SHARED, 250.0)

    def test_corun_measurement_validates_lengths(self):
        counters = collect_counters(DEFAULT_SUITE.get("dgemm"))
        with pytest.raises(ModelError):
            CoRunMeasurement(
                counters=(counters,),
                state=S1,
                power_cap_w=250.0,
                relative_performances=(0.5, 0.5),
            )


class TestCollection:
    def test_collect_solo_measurements_grid_size(self, sim):
        kernels = [DEFAULT_SUITE.get("dgemm"), DEFAULT_SUITE.get("stream")]
        measurements = collect_solo_measurements(
            sim, kernels, gpc_counts=(3, 4), options=(MemoryOption.SHARED,), power_caps=(250.0,)
        )
        assert len(measurements) == 2 * 2 * 1 * 1
        assert all(0 < m.relative_performance <= 1.2 for m in measurements)

    def test_collect_corun_measurements_grid_size(self, sim):
        pairs = [corun_pair("CI-US1").kernels()]
        measurements = collect_corun_measurements(
            sim, pairs, states=CORUN_STATES[:2], power_caps=(250.0, 150.0)
        )
        assert len(measurements) == 2 * 2
        assert all(len(m.relative_performances) == 2 for m in measurements)


class TestTrainer:
    def test_requires_measurements(self):
        trainer = ModelTrainer()
        with pytest.raises(ModelError, match="solo measurements"):
            trainer.fit_scalability([])
        with pytest.raises(ModelError, match="solo measurements"):
            trainer.train([], [])
        with pytest.raises(ModelError):
            trainer._least_squares(np.zeros((0, 6)), np.zeros(0))

    def test_rejects_negative_ridge(self):
        with pytest.raises(ModelError):
            ModelTrainer(ridge=-1.0)

    @pytest.mark.parametrize("ridge", [float("nan"), float("inf")])
    def test_rejects_non_finite_ridge(self, ridge):
        # NaN passed the `ridge < 0` check and gave NaN coefficients.
        with pytest.raises(ModelError, match="ridge"):
            ModelTrainer(ridge=ridge)

    def test_fit_scalability_creates_coefficients_per_state(self, sim):
        kernels = [DEFAULT_SUITE.get(n) for n in ("dgemm", "stream", "hgemm", "kmeans", "srad", "lud")]
        measurements = collect_solo_measurements(
            sim, kernels, gpc_counts=(3, 4), options=(MemoryOption.SHARED,), power_caps=(250.0,)
        )
        model = ModelTrainer().fit_scalability(measurements)
        assert len(model.fitted_scalability_states()) == 2

    def test_scalability_fit_reproduces_training_points_reasonably(self, sim):
        kernels = [DEFAULT_SUITE.get(n) for n in DEFAULT_SUITE.names()]
        measurements = collect_solo_measurements(
            sim, kernels, gpc_counts=(4,), options=(MemoryOption.SHARED,), power_caps=(250.0,)
        )
        model = ModelTrainer().fit_scalability(measurements)
        key = HardwareStateKey(4, 8, MemoryOption.SHARED, 250.0)
        errors = [
            abs(model.predict_solo(m.counters, key) - m.relative_performance)
            for m in measurements
        ]
        assert float(np.mean(errors)) < 0.12

    def test_training_report_is_populated(self, sim):
        kernels = [DEFAULT_SUITE.get(n) for n in ("dgemm", "stream", "hgemm", "kmeans")]
        trainer = ModelTrainer()
        solo = collect_solo_measurements(
            sim, kernels, gpc_counts=(3, 4), options=(MemoryOption.SHARED,), power_caps=(250.0,)
        )
        corun = collect_corun_measurements(
            sim, [corun_pair("TI-MI2").kernels()], states=(S1,), power_caps=(250.0,)
        )
        trainer.train(solo, corun)
        report = trainer.last_report
        assert report is not None
        assert report.n_solo_measurements == len(solo)
        assert report.n_corun_measurements == len(corun)
        assert report.scalability_residuals and report.interference_residuals
        assert all(r >= 0 for r in report.scalability_residuals.values())
        assert all(r >= 0 for r in report.interference_residuals.values())

    def test_interference_fit_requires_scalability(self, sim):
        corun = collect_corun_measurements(
            sim, [corun_pair("TI-MI2").kernels()], states=(S1,), power_caps=(250.0,)
        )
        trainer = ModelTrainer()
        from repro.core.model import LinearPerfModel
        from repro.errors import NotFittedError

        with pytest.raises(NotFittedError):
            trainer.fit_interference(corun, LinearPerfModel())

    def test_full_training_improves_corun_prediction(self, sim):
        """Adding the interference term should not hurt the fit on the
        training co-runs themselves."""
        kernels = list(DEFAULT_SUITE.all())
        solo = collect_solo_measurements(
            sim, kernels, gpc_counts=(3, 4), options=(MemoryOption.SHARED, MemoryOption.PRIVATE),
            power_caps=(250.0,),
        )
        pairs = [corun_pair(n).kernels() for n in ("TI-MI2", "CI-US1", "MI-MI2", "TI-TI1")]
        corun = collect_corun_measurements(sim, pairs, states=CORUN_STATES, power_caps=(250.0,))
        trainer = ModelTrainer()
        scal_only = trainer.fit_scalability(solo)
        full = ModelTrainer().train(solo, corun)

        def corun_error(model, use_interference):
            from repro.gpu.spec import A100_SPEC

            errors = []
            for measurement in corun:
                for index in range(2):
                    key = HardwareStateKey.from_state(
                        measurement.state, index, measurement.power_cap_w, A100_SPEC
                    )
                    others = [measurement.counters[1 - index]] if use_interference else []
                    predicted = model.predict_rperf(measurement.counters[index], key, others)
                    errors.append(abs(predicted - measurement.relative_performances[index]))
            return float(np.mean(errors))

        assert corun_error(full, True) <= corun_error(scal_only, False) + 1e-9
