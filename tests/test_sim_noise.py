"""Tests for the deterministic measurement-noise model."""

from __future__ import annotations

import math
import statistics

import pytest

from repro.errors import ConfigurationError
from repro.sim.noise import NoiseModel, no_noise


def _factors(model, count, name="stream", state_key=((4, 3), "shared"), cap=250.0):
    """The noise factors of applications 0 .. count-1 of one run."""
    return model.apply([1.0] * count, [model.prefix(name, state_key)] * count, cap)


def test_negative_sigma_rejected():
    with pytest.raises(ConfigurationError):
        NoiseModel(sigma=-0.1)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_sigma_rejected(sigma):
    # NaN passes a plain ``sigma < 0`` check; it must fail here.
    with pytest.raises(ConfigurationError, match="sigma"):
        NoiseModel(sigma=sigma)


@pytest.mark.parametrize("seed", [2.7, 2.0, "3", True])
def test_non_integer_seed_rejected(seed):
    with pytest.raises(ConfigurationError, match="seed"):
        NoiseModel(sigma=0.05, seed=seed)


def test_integer_like_seed_accepted():
    np = pytest.importorskip("numpy")
    assert NoiseModel(seed=np.int64(7)).seed == 7
    assert NoiseModel(seed=-3).seed == -3


def test_zero_sigma_is_identity():
    model = NoiseModel(sigma=0.0)
    assert _factors(model, 2) == [1.0, 1.0]
    assert model.apply([3.14], [model.prefix("a", (1,))], 150.0) == [3.14]


def test_no_noise_helper():
    assert no_noise().sigma == 0.0


def test_same_key_same_multiplier():
    model = NoiseModel(sigma=0.05, seed=1)
    assert _factors(model, 3) == _factors(model, 3)


def test_different_keys_differ():
    model = NoiseModel(sigma=0.05, seed=1)
    assert _factors(model, 1, name="a") != _factors(model, 1, name="b")
    assert _factors(model, 1, cap=250.0) != _factors(model, 1, cap=150.0)
    first, second = _factors(model, 2)
    assert first != second


def test_different_seeds_differ():
    assert _factors(NoiseModel(sigma=0.05, seed=1), 1) != _factors(
        NoiseModel(sigma=0.05, seed=2), 1
    )


def test_multiplier_is_positive_and_bounded():
    for multiplier in _factors(NoiseModel(sigma=0.03), 200):
        assert multiplier > 0
        # 3-sigma clipping bounds the multiplier.
        assert math.exp(-0.09 - 1e-9) <= multiplier <= math.exp(0.09 + 1e-9)


def test_distribution_is_roughly_centered():
    draws = [math.log(m) for m in _factors(NoiseModel(sigma=0.05), 500, name="sample")]
    assert abs(statistics.mean(draws)) < 0.01
    assert 0.03 < statistics.stdev(draws) < 0.07


def test_apply_scales_value():
    model = NoiseModel(sigma=0.05, seed=3)
    prefix = model.prefix("x", ())
    (factor,) = model.apply([1.0], [prefix], 200.0)
    assert model.apply([10.0], [prefix], 200.0) == [pytest.approx(10.0 * factor)]


def test_sigma_and_seed_exposed():
    model = NoiseModel(sigma=0.02, seed=99)
    assert model.sigma == 0.02
    assert model.seed == 99
