"""Tests for the synthetic workload generator."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.workloads.classification import classify_kernel
from repro.workloads.kernel import WorkloadClass
from repro.workloads.synthetic import SyntheticWorkloadGenerator


def _one_per_class(seed: int, rounds: int = 1) -> list:
    generator = SyntheticWorkloadGenerator(seed=seed)
    return [generator.sample_class(c) for c in list(WorkloadClass) * rounds]


def test_names_are_unique():
    names = [k.name for k in _one_per_class(seed=2, rounds=3)]
    assert len(set(names)) == 12


def test_same_seed_reproduces_same_kernels():
    assert _one_per_class(seed=42) == _one_per_class(seed=42)


def test_different_seeds_differ():
    first = _one_per_class(seed=1)
    second = _one_per_class(seed=2)
    assert any(
        a.compute_time_full_s != b.compute_time_full_s for a, b in zip(first, second)
    )


def test_explicit_name_is_used():
    kernel = SyntheticWorkloadGenerator().sample_class(WorkloadClass.CI, name="custom")
    assert kernel.name == "custom"


@pytest.mark.parametrize("workload_class", list(WorkloadClass))
def test_sampled_kernels_classify_as_requested(sim, workload_class):
    """Synthetic kernels should land in the class they were sampled from."""
    generator = SyntheticWorkloadGenerator(seed=7)
    matches = 0
    trials = 5
    for _ in range(trials):
        kernel = generator.sample_class(workload_class)
        report = classify_kernel(kernel, sim)
        if report.workload_class is workload_class:
            matches += 1
    # Sampling ranges target the class but boundaries are probabilistic;
    # require a clear majority rather than perfection.
    assert matches >= trials - 1


def test_tensor_kernels_only_in_ti_class():
    generator = SyntheticWorkloadGenerator(seed=3)
    ti = generator.sample_class(WorkloadClass.TI)
    ci = generator.sample_class(WorkloadClass.CI)
    assert ti.uses_tensor_cores
    assert not ci.uses_tensor_cores


@pytest.mark.parametrize("seed", [2.7, True, float("nan"), -1])
def test_seed_must_be_a_non_negative_integer(seed):
    # NumPy used to raise a bare TypeError (or ValueError) here.
    with pytest.raises(ConfigurationError, match="seed"):
        SyntheticWorkloadGenerator(seed)
