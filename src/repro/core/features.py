"""Basis functions over the profiled counters (Table 4 of the paper).

The linear model does not regress directly on the raw counters ``F1..F8``;
it first converts them with two hand-designed basis functions:

* ``H(F)`` feeds the *scalability* term and captures how the application
  itself reacts to fewer GPCs / lower clocks:

  ====  =====================================  ==========================
  H1    ``F1/100 − H2``                         non-Tensor compute intensity
  H2    ``(F6 + F7 + F8)/100``                  Tensor compute intensity
  H3    ``F2/F1``                               memory/compute ratio
  H4    ``F4/100``                              L2 / DRAM locality
  H5    ``F5/100``                              resource utilization
  H6    ``1``                                   constant
  ====  =====================================  ==========================

* ``J(F)`` feeds the *interference* term and captures how much pressure a
  co-located application exerts:

  ====  ==============  =======================
  J1    ``F3/100``      DRAM intensity
  J2    ``F4/100``      access-pattern related
  J3    ``1``           constant
  ====  ==============  =======================

* Under *sub-chip shared* hardware-state keys (a Compute Instance inside a
  shared GPU Instance smaller than the chip — mixed layouts only) the
  interference basis is augmented with capacity-aware *pool terms*
  (key schema v3).  ``q`` is the pool fraction, i.e. the hosting GI's
  memory slices over the chip's, and ``Ĵ1`` the clamped DRAM demand
  :func:`dram_demand` (``d = Ĵ1(F_i) + Σ_j Ĵ1(F_j)`` the combined demand):

  ======  ========================================  =========================
  σ·H     ``min(1, q/d) · H(F_i)``                  the victim's scalability
                                                    basis scaled by the pool's
                                                    *servable fraction* of the
                                                    combined DRAM demand
  P1      ``min(1, Σ_j Ĵ1(F_j) / q)``               saturating co-runner DRAM
                                                    demand relative to the pool
  P2      ``max(0, d − q)``                         piecewise excess demand
                                                    once the pool's
                                                    proportional bandwidth is
                                                    oversubscribed
  ======  ========================================  =========================

  A linear-in-``J`` interference term cannot bend where a quarter-capacity
  pool clips (the 1-GPC/2-slice GI saturates long before the co-runner's
  raw DRAM counter does); the saturating servable fraction ``σ``
  (:func:`servable_fraction`), the saturating ``P1``, and the hinge ``P2``
  give the fitted coefficients exactly that bend.  Private keys never see
  these terms, and full-chip shared keys only see them through the
  separately-fitted N≥3 *composition* correction evaluated at ``q = 1``
  (the full chip is the largest pool) — pair predictions stay
  bit-identical to the pair-era model either way.

The paper notes that the manual choice of counters and basis functions is a
limitation; :data:`RAW_COUNTER_BASIS` exists so that the ablation benchmark
can quantify what the hand-designed basis buys over regressing on raw
counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.sim.counters import CounterVector

#: Labels of the H components, for reports.
H_LABELS: tuple[str, ...] = (
    "H1 non-tensor compute intensity",
    "H2 tensor compute intensity",
    "H3 memory/compute ratio",
    "H4 locality (L2 hit rate)",
    "H5 resource utilization",
    "H6 constant",
)

#: Labels of the J components, for reports.
J_LABELS: tuple[str, ...] = (
    "J1 DRAM intensity",
    "J2 access pattern (L2 hit rate)",
    "J3 constant",
)

#: Labels of the capacity-aware pool terms appended to the interference
#: basis under sub-chip shared keys (key schema v3), for reports.
POOL_TERM_LABELS: tuple[str, ...] = (
    "P1 saturating co-runner DRAM demand",
    "P2 excess combined DRAM demand",
)

#: Number of pool terms appended to ``J`` under sub-chip shared keys.
POOL_TERM_DIM: int = len(POOL_TERM_LABELS)


def dram_demand(counters: CounterVector) -> float:
    """The clamped DRAM demand of one application: ``F3/100`` in ``[0, 1]``.

    This is the ``J1`` feature read straight from the counters (so a custom
    basis cannot invert the physics) and clamped, because a counter reading
    above 100 % — out-of-spec, but possible from a raw telemetry feed —
    must not silently amplify the interference term.
    """
    return min(1.0, max(0.0, counters.dram_throughput / 100.0))


def servable_fraction(
    victim_demand: float,
    co_runner_demand: float,
    pool_fraction: float,
) -> float:
    """``σ = min(1, q / d)``: what share of the combined DRAM demand fits.

    ``d`` is the victim's plus the co-runners' clamped DRAM demand and
    ``q`` the pool fraction.  Below saturation the pool serves everything
    (``σ = 1``, and the basis degenerates to a plain second copy of ``H``
    that the fit can fold into ``C``); past it the victim's achievable
    bandwidth — and with it the memory-bound part of its performance —
    scales down like ``q/d`` under the proportional HBM arbitration the
    shared pool applies.  Scaling the victim's own ``H(F)`` block by this
    fraction is what lets a per-key linear fit reproduce the reciprocal
    roll-off of a clipped pool.
    """
    if not (0.0 < pool_fraction <= 1.0):
        raise ValueError(f"pool_fraction must be in (0, 1], got {pool_fraction}")
    return min(1.0, pool_fraction / max(victim_demand + co_runner_demand, 1e-6))


def pool_saturation_terms(
    victim_demand: float,
    co_runner_demand: float,
    pool_fraction: float,
) -> np.ndarray:
    """The capacity-aware pool terms ``P(F)`` (length :data:`POOL_TERM_DIM`).

    Parameters
    ----------
    victim_demand:
        Clamped DRAM demand of the application being predicted
        (:func:`dram_demand` of its own counters).
    co_runner_demand:
        Summed clamped DRAM demand of the co-runners sharing its GPU
        Instance.
    pool_fraction:
        The hosting GI's memory slices as a fraction of the chip's
        (``mem_slices / n_mem_slices``), i.e. the pool's proportional
        share of LLC capacity and DRAM bandwidth.

    ``P1`` saturates at 1 once the co-runners alone can fill the pool;
    ``P2`` is a hinge that activates only when the *combined* demand
    exceeds the pool's proportional bandwidth — the regime where the
    2-slice pool clips and a linear-in-``J`` fit underfits.
    """
    if not (0.0 < pool_fraction <= 1.0):
        raise ValueError(
            f"pool_fraction must be in (0, 1], got {pool_fraction}"
        )
    saturating = min(1.0, co_runner_demand / pool_fraction)
    excess = max(0.0, victim_demand + co_runner_demand - pool_fraction)
    return np.array([saturating, excess], dtype=float)


def capacity_terms(
    victim_demand: np.ndarray | float,
    co_runner_demand: np.ndarray,
    pool_fraction: np.ndarray | float,
) -> np.ndarray:
    """Row-wise ``[σ, P1, P2]`` over arrays of demands and pool fractions.

    The elementwise form of :func:`servable_fraction` followed by
    :func:`pool_saturation_terms`, op for op, so every entry is
    bit-identical to the scalar value; the trainer builds its
    capacity-aware design columns with it, and the batched predictor its
    sub-chip and full-chip composition terms.
    """
    pool_fraction = np.asarray(pool_fraction, dtype=float)
    in_range = (0.0 < pool_fraction) & (pool_fraction <= 1.0)
    if not np.all(in_range):
        raise ValueError(
            f"pool_fraction must be in (0, 1], got {pool_fraction[~in_range][0]}"
        )
    combined = victim_demand + co_runner_demand
    return np.column_stack(
        [
            np.minimum(1.0, pool_fraction / np.maximum(combined, 1e-6)),
            np.minimum(1.0, co_runner_demand / pool_fraction),
            np.maximum(0.0, combined - pool_fraction),
        ]
    )


def basis_h(counters: CounterVector) -> np.ndarray:
    """The scalability basis ``H(F)`` of Table 4 (length 6)."""
    tensor_intensity = (
        counters.tensor_mixed + counters.tensor_double + counters.tensor_int
    ) / 100.0
    compute = counters.compute_throughput
    memory = counters.memory_throughput
    # Guard the ratio against a (theoretical) zero compute throughput; the
    # paper's kernels always have F1 > 0.
    memory_compute_ratio = memory / compute if compute > 1e-9 else 0.0
    return np.array(
        [
            counters.compute_throughput / 100.0 - tensor_intensity,
            tensor_intensity,
            memory_compute_ratio,
            counters.l2_hit_rate / 100.0,
            counters.occupancy / 100.0,
            1.0,
        ],
        dtype=float,
    )


def basis_j(counters: CounterVector) -> np.ndarray:
    """The interference basis ``J(F)`` of Table 4 (length 3)."""
    return np.array(
        [
            counters.dram_throughput / 100.0,
            counters.l2_hit_rate / 100.0,
            1.0,
        ],
        dtype=float,
    )


def raw_counter_basis(counters: CounterVector) -> np.ndarray:
    """All eight raw counters (scaled to 0..1) plus a constant (length 9)."""
    return np.concatenate([counters.as_array() / 100.0, [1.0]])


@dataclass(frozen=True)
class BasisFunctions:
    """A named pair of basis functions for the two model terms.

    Attributes
    ----------
    name:
        Identifier used in reports and ablations.
    h:
        Basis applied to the application's own counters (scalability term).
    j:
        Basis applied to each co-runner's counters (interference term).
    h_dim, j_dim:
        Output dimensions of ``h`` and ``j``.
    """

    name: str
    h: Callable[[CounterVector], np.ndarray]
    j: Callable[[CounterVector], np.ndarray]
    h_dim: int
    j_dim: int

    def h_matrix(self, counters_list: list[CounterVector]) -> np.ndarray:
        """Stack ``h`` over a list of counter vectors into a design matrix."""
        if not counters_list:
            return np.zeros((0, self.h_dim), dtype=float)
        return np.vstack([self.h(c) for c in counters_list])

    def j_matrix(self, counters_list: list[CounterVector]) -> np.ndarray:
        """Stack ``j`` over a list of counter vectors into a design matrix."""
        if not counters_list:
            return np.zeros((0, self.j_dim), dtype=float)
        return np.vstack([self.j(c) for c in counters_list])


#: The paper's Table 4 basis.
DEFAULT_BASIS = BasisFunctions(name="table4", h=basis_h, j=basis_j, h_dim=6, j_dim=3)

#: Raw-counter basis used by the basis-function ablation.
RAW_COUNTER_BASIS = BasisFunctions(
    name="raw-counters",
    h=raw_counter_basis,
    j=raw_counter_basis,
    h_dim=9,
    j_dim=9,
)
