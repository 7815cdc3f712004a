"""Tests for the LLC/HBM interference model."""

from __future__ import annotations

import dataclasses

import pytest

import repro.sim.engine as engine_module
from repro.errors import ConfigurationError
from repro.gpu.spec import A100_SPEC
from repro.sim.interference import InterferenceModel, InterferenceParams
from repro.workloads.suite import DEFAULT_SUITE


@pytest.fixture()
def model():
    return InterferenceModel()


class TestParams:
    def test_defaults_are_positive(self):
        params = InterferenceParams()
        assert params.compute_l2_alpha > 0
        assert params.memory_l2_alpha > 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            InterferenceParams(compute_l2_alpha=5.0)
        with pytest.raises(ConfigurationError):
            InterferenceParams(memory_l2_alpha=-0.1)


class TestCachePressure:
    def test_streaming_kernel_exerts_high_pressure(self, model):
        assert model.cache_pressure(DEFAULT_SUITE.get("stream")) > 0.8

    def test_small_footprint_kernel_exerts_less_pressure(self, model):
        gemm = model.cache_pressure(DEFAULT_SUITE.get("hgemm"))
        stream = model.cache_pressure(DEFAULT_SUITE.get("stream"))
        assert gemm < stream

    def test_pressure_bounded(self, model):
        for name in DEFAULT_SUITE.names():
            assert 0.0 <= model.cache_pressure(DEFAULT_SUITE.get(name)) <= 1.0


class TestPenalties:
    def test_no_corunners_means_no_penalty(self, model):
        kernel = DEFAULT_SUITE.get("srad")
        assert model.compute_penalty(kernel, []) == 1.0
        assert model.memory_penalty(kernel, []) == 1.0

    def test_penalties_are_at_least_one(self, model):
        kernel = DEFAULT_SUITE.get("srad")
        others = [DEFAULT_SUITE.get("stream")]
        assert model.compute_penalty(kernel, others) >= 1.0
        assert model.memory_penalty(kernel, others) >= 1.0

    def test_sensitive_kernel_penalized_more(self, model):
        others = [DEFAULT_SUITE.get("needle")]
        sensitive = model.compute_penalty(DEFAULT_SUITE.get("srad"), others)
        insensitive = model.compute_penalty(DEFAULT_SUITE.get("stream"), others)
        assert sensitive > insensitive

    def test_penalty_uses_worst_corunner(self, model):
        kernel = DEFAULT_SUITE.get("srad")
        mild = [DEFAULT_SUITE.get("hgemm")]
        harsh = [DEFAULT_SUITE.get("hgemm"), DEFAULT_SUITE.get("stream")]
        assert model.compute_penalty(kernel, harsh) >= model.compute_penalty(kernel, mild)



#: A kernel that moves no DRAM traffic, so it demands none of a pool.
_COMPUTE_ONLY = dataclasses.replace(
    DEFAULT_SUITE.get("hgemm"), name="hgemm-compute-only", memory_time_full_s=0.0
)


def _settled_pool(kernels, capacities=(1.0, 1.0)):
    """The shape of ``kernels`` drawing from one shared pool, 3 GPCs each,
    and its compute and memory times after the engine's pool fixed point."""
    placements = [
        engine_module._Placement(kernel, 3, capacity, 0)
        for kernel, capacity in zip(kernels, capacities)
    ]
    shape = engine_module._Shape(placements, A100_SPEC.n_gpcs)
    return (shape, *shape.solve(1.0))


def _draws(shape, compute, memory):
    """Each member's settled DRAM draw, as a fraction of the chip's bandwidth."""
    return [
        full / (max(c, m) + s)
        for full, c, m, s in zip(shape.memory_full, compute, memory, shape.serial)
    ]


class TestBandwidthSharing:
    """The engine's pool fixed point arbitrates a shared pool's bandwidth."""

    def test_partner_without_traffic_leaves_the_whole_pool(self):
        stream = DEFAULT_SUITE.get("stream")
        _, _, memory = _settled_pool([stream, _COMPUTE_ONLY])
        assert memory == [stream.memory_time_full_s, 0.0]

    def test_over_subscription_stays_within_the_pool(self):
        stream = DEFAULT_SUITE.get("stream")
        for name in DEFAULT_SUITE.names():
            shape, compute, memory = _settled_pool([DEFAULT_SUITE.get(name), stream])
            assert sum(_draws(shape, compute, memory)) <= 1.0 + 1e-6
            # Alone in the pool, the streaming member would draw it whole.
            assert memory[1] > stream.memory_time_full_s

    def test_identical_members_split_evenly(self):
        stream = DEFAULT_SUITE.get("stream")
        shape, compute, memory = _settled_pool([stream, stream])
        assert memory[0] == memory[1]
        assert _draws(shape, compute, memory)[0] == pytest.approx(0.5, rel=0.01)

    def test_zero_demand_handled(self):
        shape, compute, memory = _settled_pool([_COMPUTE_ONLY, _COMPUTE_ONLY])
        assert memory == [0.0, 0.0]
        assert _draws(shape, compute, memory) == [0.0, 0.0]

    def test_member_capacity_caps_its_draw(self):
        stream = DEFAULT_SUITE.get("stream")
        _, _, memory = _settled_pool([stream, _COMPUTE_ONLY], capacities=(0.5, 1.0))
        assert memory[0] == pytest.approx(2 * stream.memory_time_full_s)
