"""Tests for the Table 4 basis functions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import (
    DEFAULT_BASIS,
    H_LABELS,
    J_LABELS,
    RAW_COUNTER_BASIS,
    basis_h,
    basis_j,
    capacity_terms,
    pool_saturation_terms,
    raw_counter_basis,
    servable_fraction,
)
from repro.sim.counters import CounterVector, collect_counters
from repro.workloads.suite import DEFAULT_SUITE


def counters(compute=90.0, memory=45.0, dram=30.0, l2=60.0, occ=50.0, mixed=70.0, double=0.0, integer=0.0):
    return CounterVector(compute, memory, dram, l2, occ, mixed, double, integer)


class TestBasisH:
    def test_dimension_matches_table4(self):
        assert basis_h(counters()).shape == (6,)
        assert len(H_LABELS) == 6

    def test_h2_is_tensor_intensity(self):
        h = basis_h(counters(mixed=40, double=10, integer=5))
        assert h[1] == pytest.approx(0.55)

    def test_h1_is_non_tensor_compute_intensity(self):
        h = basis_h(counters(compute=90, mixed=70))
        assert h[0] == pytest.approx(0.9 - 0.7)

    def test_h3_is_memory_compute_ratio(self):
        h = basis_h(counters(compute=90, memory=45))
        assert h[2] == pytest.approx(0.5)

    def test_h3_guard_against_zero_compute(self):
        zero_compute = CounterVector(0.0, 50, 40, 60, 50, 0, 0, 0)
        assert basis_h(zero_compute)[2] == 0.0

    def test_h4_h5_are_scaled_counters(self):
        h = basis_h(counters(l2=60, occ=50))
        assert h[3] == pytest.approx(0.6)
        assert h[4] == pytest.approx(0.5)

    def test_h6_is_constant(self):
        assert basis_h(counters())[5] == 1.0


class TestBasisJ:
    def test_dimension_matches_table4(self):
        assert basis_j(counters()).shape == (3,)
        assert len(J_LABELS) == 3

    def test_components(self):
        j = basis_j(counters(dram=30, l2=60))
        assert j[0] == pytest.approx(0.3)
        assert j[1] == pytest.approx(0.6)
        assert j[2] == 1.0


class TestRawBasis:
    def test_dimension(self):
        assert raw_counter_basis(counters()).shape == (9,)
        assert RAW_COUNTER_BASIS.h_dim == 9

    def test_constant_term_last(self):
        assert raw_counter_basis(counters())[-1] == 1.0


class TestBasisFunctionsContainer:
    def test_default_basis_dims(self):
        assert DEFAULT_BASIS.h_dim == 6
        assert DEFAULT_BASIS.j_dim == 3
        assert DEFAULT_BASIS.name == "table4"

    def test_h_matrix_stacks_rows(self):
        profiles = [collect_counters(DEFAULT_SUITE.get(n)) for n in ("dgemm", "stream", "hgemm")]
        matrix = DEFAULT_BASIS.h_matrix(profiles)
        assert matrix.shape == (3, 6)
        assert np.allclose(matrix[0], basis_h(profiles[0]))

    def test_j_matrix_stacks_rows(self):
        profiles = [collect_counters(DEFAULT_SUITE.get(n)) for n in ("dgemm", "stream")]
        matrix = DEFAULT_BASIS.j_matrix(profiles)
        assert matrix.shape == (2, 3)

    def test_empty_matrix(self):
        assert DEFAULT_BASIS.h_matrix([]).shape == (0, 6)
        assert DEFAULT_BASIS.j_matrix([]).shape == (0, 3)

    def test_basis_separates_the_classes(self):
        """The hand-designed features should clearly separate TI/CI/MI kernels."""
        hgemm = basis_h(collect_counters(DEFAULT_SUITE.get("hgemm")))
        dgemm = basis_h(collect_counters(DEFAULT_SUITE.get("dgemm")))
        stream = basis_h(collect_counters(DEFAULT_SUITE.get("stream")))
        assert hgemm[1] > 0.5 and dgemm[1] == 0.0          # tensor intensity
        assert stream[2] > 3 * dgemm[2]                     # memory/compute ratio


class TestCapacityTerms:
    def test_matches_the_scalar_terms_bit_for_bit(self):
        rng = np.random.default_rng(3)
        victim = rng.random(200)
        co_runner = rng.random(200) * 3.0
        pool = rng.choice([0.125, 0.25, 0.5, 0.75, 1.0], 200)
        victim[:3] = co_runner[:3] = 0.0  # combined demand below the 1e-6 floor
        expected = np.array(
            [
                [servable_fraction(v, c, q), *pool_saturation_terms(v, c, q)]
                for v, c, q in zip(victim.tolist(), co_runner.tolist(), pool.tolist())
            ]
        )
        assert capacity_terms(victim, co_runner, pool).tobytes() == expected.tobytes()

    def test_empty_rows(self):
        assert capacity_terms(np.zeros(0), np.zeros(0), np.zeros(0)).shape == (0, 3)

    @pytest.mark.parametrize("bad", [0.0, 1.5, float("nan")])
    def test_pool_fraction_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="pool_fraction"):
            capacity_terms(np.full(2, 0.5), np.full(2, 0.5), np.array([0.25, bad]))
