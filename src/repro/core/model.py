"""The linear-regression relative-performance model (Section 4.3).

For application ``i`` co-located with applications ``j ≠ i`` under hardware
state ``(S, P)`` the paper models the relative performance as::

    RPerf_i(S, P) = C(S, P) · H(F_i)  +  Σ_{j≠i} D(S, P) · J(F_j)

where ``F_i`` is the profiled counter vector of application ``i`` and the
coefficient vectors ``C`` and ``D`` are fitted *per hardware state* with
least squares.  A hardware state, from the point of view of one application,
is the tuple (number of GPCs it received, memory slices of its GPU
Instance, memory option, chip power cap) — that is exactly what
:class:`HardwareStateKey` encodes.  The memory-slice dimension is what
distinguishes a Compute Instance inside a *sub-chip* shared GPU Instance
(a mixed layout) from one inside the full-chip shared GI: both are
"shared", but the former only reaches its GI's slice bandwidth.

The scalability term alone is used for solo predictions (the paper ignores
the interference term when only one application runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ModelError, NotFittedError
from repro.core.features import (
    DEFAULT_BASIS,
    POOL_TERM_DIM,
    BasisFunctions,
    capacity_terms,
    dram_demand,
    pool_saturation_terms,
    servable_fraction,
)
from repro.gpu.mig import MemoryOption, PartitionState
from repro.gpu.spec import A100_SPEC, GPUSpec, builtin_spec_named
from repro.sim.counters import CounterVector

#: Version of the hardware-state key schema.  Version 1 keyed coefficients
#: on (gpcs, option, cap); version 2 added the GPU Instance's memory-slice
#: count so sub-chip shared GIs stop borrowing full-chip coefficients;
#: version 3 appended the capacity-aware pool terms (saturating co-runner
#: demand, excess combined demand) to the interference basis of sub-chip
#: shared keys, so the fitted coefficients can bend where a tiny pool clips.
KEY_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class HardwareStateKey:
    """One application's view of the hardware state ``(S, P)``.

    Attributes
    ----------
    gpcs:
        GPCs allocated to the application.
    mem_slices:
        LLC/HBM memory slices owned by the GPU Instance hosting the
        application.  For a private GI this is the profile table's value
        for the GI's size; for the full-chip shared GI it is the chip's
        slice count; for a sub-chip shared GI (mixed layouts) it is the
        slice count of that smaller instance.
    option:
        Effective LLC/HBM sharing option the application experiences.
    power_cap_w:
        Chip power cap in watts.
    """

    gpcs: int
    mem_slices: int
    option: MemoryOption
    power_cap_w: float

    def __post_init__(self) -> None:
        if int(self.mem_slices) <= 0:
            raise ModelError(
                f"mem_slices must be a positive slice count, got {self.mem_slices!r}"
            )
        object.__setattr__(self, "mem_slices", int(self.mem_slices))
        object.__setattr__(self, "option", MemoryOption(self.option))
        object.__setattr__(self, "power_cap_w", float(self.power_cap_w))

    @classmethod
    def from_state(
        cls,
        state: PartitionState,
        app_index: int,
        power_cap_w: float,
        spec: GPUSpec,
    ) -> "HardwareStateKey":
        """The key seen by application ``app_index`` under ``state`` at ``power_cap_w``.

        For mixed states the per-application option is the *effective* one
        (private when the application owns its GPU Instance, shared when it
        shares one).  The memory-slice count comes from the GPU Instance the
        application actually lives in on ``spec`` — this is what separates a
        sub-chip shared GI from the full-chip pool, so mixed layouts no
        longer reuse (and overestimate) full-chip shared bandwidth
        coefficients.
        """
        return cls(*cls.cap_free_fields(state, app_index, spec), power_cap_w)

    @staticmethod
    def cap_free_fields(
        state: PartitionState, app_index: int, spec: GPUSpec
    ) -> tuple[int, int, MemoryOption]:
        """The cap-free fields of :meth:`from_state`'s key: GPCs, memory
        slices and effective option.  A caller keying one state at many caps
        derives them once and varies only the cap."""
        return (
            state.gpc_allocations[app_index],
            state.mem_slices_for(app_index, spec),
            state.effective_option(app_index),
        )

    def sort_key(self) -> tuple:
        """Deterministic ordering used for fitted-state listings."""
        return (self.option.value, self.gpcs, self.mem_slices, self.power_cap_w)

    def describe(self) -> str:
        """Human-readable description."""
        return (
            f"{self.gpcs}GPCs/{self.mem_slices}sl/"
            f"{self.option.value}/{self.power_cap_w:.0f}W"
        )


@dataclass(frozen=True)
class CandidateCoefficients:
    """A candidate grid's coefficients, from :meth:`LinearPerfModel.gather_candidates`.

    Every tensor's first axis is the candidate and its second the
    application; ``version`` is the model's coefficients version at the
    gather.  The interference tensors are ``None`` for solo grids and the
    composition pair for grids of fewer than three applications.
    """

    version: int
    scalability: np.ndarray
    interference: np.ndarray | None
    partner_mask: np.ndarray | None
    sub_chip: np.ndarray | None
    pool_fractions: np.ndarray | None
    comp_mask: np.ndarray | None
    composition: np.ndarray | None


class LinearPerfModel:
    """Per-hardware-state linear regression over profiled features.

    The model stores one scalability coefficient vector ``C`` and one
    interference coefficient vector ``D`` per :class:`HardwareStateKey`.
    Training happens in :mod:`repro.core.training`; this class only holds
    coefficients and evaluates predictions.
    """

    def __init__(
        self, basis: BasisFunctions = DEFAULT_BASIS, spec: GPUSpec = A100_SPEC
    ) -> None:
        self._basis = basis
        self._spec = spec
        self._scalability: dict[HardwareStateKey, np.ndarray] = {}
        self._interference: dict[HardwareStateKey, np.ndarray] = {}
        self._composition: dict[HardwareStateKey, np.ndarray] = {}
        self._coefficients_version = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def basis(self) -> BasisFunctions:
        """The basis functions the coefficients were fitted against."""
        return self._basis

    @property
    def spec(self) -> GPUSpec:
        """The hardware spec the per-application keys are derived against."""
        return self._spec

    @property
    def coefficients_version(self) -> int:
        """Counter bumped whenever a coefficient vector is (re)installed.

        Caches keyed on model predictions (the allocator's candidate
        tables, the online layer's decision memo and state cache) include
        this so refitting invalidates them.
        """
        return self._coefficients_version

    def fitted_scalability_states(self) -> tuple[HardwareStateKey, ...]:
        """Hardware states with a fitted scalability term."""
        return tuple(sorted(self._scalability, key=HardwareStateKey.sort_key))

    def has_scalability(self, key: HardwareStateKey) -> bool:
        """Whether a scalability coefficient vector exists for ``key``."""
        return key in self._scalability

    def has_interference(self, key: HardwareStateKey) -> bool:
        """Whether an interference coefficient vector exists for ``key``."""
        return key in self._interference

    def scalability_coefficients(self, key: HardwareStateKey) -> np.ndarray:
        """The fitted ``C`` vector for ``key`` (copy)."""
        self._require_scalability(key)
        return self._scalability[key].copy()

    def interference_coefficients(self, key: HardwareStateKey) -> np.ndarray:
        """The fitted ``D`` vector for ``key`` (copy)."""
        if key not in self._interference:
            raise NotFittedError(
                f"no interference coefficients fitted for state {key.describe()}"
            )
        return self._interference[key].copy()

    # ------------------------------------------------------------------
    # Coefficient installation (used by the trainer and by persistence)
    # ------------------------------------------------------------------
    def set_scalability_coefficients(
        self, key: HardwareStateKey, coefficients: np.ndarray
    ) -> None:
        """Install the ``C`` vector for one hardware state."""
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (self._basis.h_dim,):
            raise ModelError(
                f"scalability coefficients for {key.describe()} must have shape "
                f"({self._basis.h_dim},), got {coefficients.shape}"
            )
        self._scalability[key] = coefficients.copy()
        self._coefficients_version += 1

    def set_interference_coefficients(
        self, key: HardwareStateKey, coefficients: np.ndarray
    ) -> None:
        """Install the ``D`` vector for one hardware state.

        Sub-chip shared keys carry :data:`~repro.core.features.POOL_TERM_DIM`
        extra coefficients for the capacity-aware pool terms (key schema
        v3); every other key keeps the plain ``J`` dimensionality.
        """
        coefficients = np.asarray(coefficients, dtype=float)
        expected = self.interference_dim(key)
        if coefficients.shape != (expected,):
            raise ModelError(
                f"interference coefficients for {key.describe()} must have shape "
                f"({expected},), got {coefficients.shape}"
            )
        self._interference[key] = coefficients.copy()
        self._coefficients_version += 1

    def set_composition_coefficients(
        self, key: HardwareStateKey, coefficients: np.ndarray
    ) -> None:
        """Install the composition ``E`` vector for one full-chip shared state.

        The composition correction applies the capacity-aware saturating
        basis of key schema v3 at the *full-chip* pool (``q = 1``): when
        three or more applications share the chip's LLC/HBM, the plain
        additive per-co-runner ``J`` terms (pair-fitted) systematically
        overshoot because the pool clips.  The ``E`` vector holds the
        servable-fraction-scaled ``H`` block followed by the two pool
        terms — the same layout the sub-chip keys append to ``D`` — fitted
        on N≥3 shared measurements only, so pair predictions never move.
        """
        if key.option is not MemoryOption.SHARED or self.is_sub_chip_shared(key):
            raise ModelError(
                f"composition coefficients only apply to full-chip shared "
                f"states, not {key.describe()}"
            )
        coefficients = np.asarray(coefficients, dtype=float)
        expected = self._basis.h_dim + POOL_TERM_DIM
        if coefficients.shape != (expected,):
            raise ModelError(
                f"composition coefficients for {key.describe()} must have shape "
                f"({expected},), got {coefficients.shape}"
            )
        self._composition[key] = coefficients.copy()
        self._coefficients_version += 1

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict_solo(self, counters: CounterVector, key: HardwareStateKey) -> float:
        """Predicted relative performance of a solo run under ``key``."""
        self._require_scalability(key)
        value = float(self._scalability[key] @ self._basis.h(counters))
        return max(0.0, value)

    def is_sub_chip_shared(self, key: HardwareStateKey) -> bool:
        """Whether ``key`` describes a CI inside a *sub-chip* shared GI.

        These keys only arise from mixed layouts; the full-chip shared
        option always grants the whole chip's memory slices.
        """
        return (
            key.option is MemoryOption.SHARED
            and key.mem_slices < self._spec.n_mem_slices
        )

    def interference_dim(self, key: HardwareStateKey) -> int:
        """Length of the ``D`` vector for ``key``.

        Sub-chip shared keys (mixed layouts) append the capacity-aware
        terms to the ``J`` basis — the servable-fraction-scaled copy of
        the victim's ``H`` block and the two pool terms, in that order —
        while full-chip shared and private keys keep the paper's plain
        ``J`` dimensionality.
        """
        if self.is_sub_chip_shared(key):
            return self._basis.j_dim + self._basis.h_dim + POOL_TERM_DIM
        return self._basis.j_dim

    def pool_fraction(self, key: HardwareStateKey) -> float:
        """The hosting GI's memory slices as a fraction of the chip's."""
        return key.mem_slices / self._spec.n_mem_slices

    def interference_scale(
        self, key: HardwareStateKey, counters: CounterVector
    ) -> float:
        """Victim-side modulation of the interference term under ``key``.

        In the full-chip shared pool the paper's plain additive term is
        kept (``1.0`` — bit-identical to the pair-era model).  A sub-chip
        shared GI saturates: how much a co-runner's pressure costs the
        victim is roughly proportional to the victim's *own* DRAM appetite
        (a compute-bound CI barely notices a streaming GI-mate, a
        bandwidth-bound one loses its share of an already-halved pool), so
        the term is scaled by the victim's DRAM-intensity counter (the F3
        fraction — the ``J1`` feature of the Table 4 basis, but read from
        the counters directly so a custom basis cannot silently invert the
        physics), clamped into ``[0, 1]`` so an out-of-spec counter reading
        above 100 % cannot silently amplify the interference term.  The
        trainer applies the same scale when fitting, keeping fit and
        prediction consistent.
        """
        if not self.is_sub_chip_shared(key):
            return 1.0
        return dram_demand(counters)

    def predict_rperf(
        self,
        counters: CounterVector,
        key: HardwareStateKey,
        co_counters: Sequence[CounterVector] = (),
    ) -> float:
        """Predicted relative performance of one co-located application.

        ``co_counters`` are the profiled counter vectors of the other
        applications sharing the GPU; when it is empty the interference term
        is skipped (solo prediction).

        Under a sub-chip shared key the additive per-co-runner ``J`` terms
        are followed by the capacity-aware basis terms (key schema v3):
        the victim's ``H`` block scaled by the pool's servable fraction of
        the combined DRAM demand, then the saturating/excess pool terms,
        each evaluated once for the whole co-runner group.  Full-chip
        shared and private keys evaluate exactly the pair-era expression.
        """
        self._require_scalability(key)
        value = float(self._scalability[key] @ self._basis.h(counters))
        if co_counters:
            if key not in self._interference:
                raise NotFittedError(
                    f"no interference coefficients fitted for state {key.describe()}"
                )
            d = self._interference[key]
            j_dim = self._basis.j_dim
            scale = self.interference_scale(key, counters)
            for other in co_counters:
                value += scale * float(d[:j_dim] @ self._basis.j(other))
            if self.is_sub_chip_shared(key):
                value = self._add_capacity_terms(
                    value, d[j_dim:], key, counters, co_counters
                )
            if len(co_counters) >= 2 and key in self._composition:
                # Full-chip composition correction (mutually exclusive
                # with the sub-chip branch above): the pair-additive terms
                # overshoot once the whole-chip pool clips, so apply the
                # capacity-aware basis at q = 1 with the N≥3-fitted E.
                value = self._add_capacity_terms(
                    value, self._composition[key], key, counters, co_counters
                )
        return max(0.0, value)

    def _add_capacity_terms(
        self,
        value: float,
        coefficients: np.ndarray,
        key: HardwareStateKey,
        counters: CounterVector,
        co_counters: Sequence[CounterVector],
    ) -> float:
        """``value`` plus ``σ·(C_H·H)``, then plus ``C_P·P``, for one application.

        ``coefficients`` is ``[C_H, C_P]``: the capacity block of a sub-chip
        key's ``D`` or a full-chip composition vector ``E``.  The two terms
        are added to ``value`` one at a time, the order the pinned
        predictions were captured in.
        """
        h_dim = self._basis.h_dim
        co_runner_demand = 0.0
        for other in co_counters:
            co_runner_demand += dram_demand(other)
        victim_demand = dram_demand(counters)
        pool_fraction = self.pool_fraction(key)
        servable = servable_fraction(victim_demand, co_runner_demand, pool_fraction)
        value += servable * float(coefficients[:h_dim] @ self._basis.h(counters))
        terms = pool_saturation_terms(victim_demand, co_runner_demand, pool_fraction)
        return value + float(coefficients[h_dim:] @ terms)

    def predict_corun(
        self,
        counters_list: Sequence[CounterVector],
        state: PartitionState,
        power_cap_w: float,
    ) -> tuple[float, ...]:
        """Predicted relative performance of every application under ``state``."""
        if state.n_apps != len(counters_list):
            raise ModelError(
                f"state {state.describe()} has {state.n_apps} applications but "
                f"{len(counters_list)} profiles were supplied"
            )
        predictions = []
        for index, counters in enumerate(counters_list):
            key = HardwareStateKey.from_state(state, index, power_cap_w, self._spec)
            partners = [
                counters_list[j] for j in state.interference_partners(index)
            ]
            predictions.append(self.predict_rperf(counters, key, partners))
        return tuple(predictions)

    def predict_candidates(
        self,
        counters_list: Sequence[CounterVector],
        candidates: Sequence[tuple[PartitionState, float]] | CandidateCoefficients,
    ) -> np.ndarray:
        """Batched predictions over a grid of ``(state, power_cap)`` candidates.

        Returns an array of shape ``(len(candidates), n_apps)`` whose rows
        match :meth:`predict_corun` for the corresponding candidate.  The
        basis features of each application are computed once and the
        per-candidate work reduces to vectorized matrix-vector products
        over the grid's gathered coefficients — this is the allocator's hot
        path when the candidate space grows beyond the paper's 24-point
        grid.  ``candidates`` may also be a grid's coefficients gathered
        by :meth:`gather_candidates`, so a caller predicting one grid for
        many groups skips the per-candidate lookups after the first.
        """
        n_apps = len(counters_list)
        if n_apps == 0:
            raise ModelError("predict_candidates needs at least one application")
        grid = (
            candidates
            if isinstance(candidates, CandidateCoefficients)
            else self.gather_candidates(candidates, n_apps)
        )
        if grid.version != self._coefficients_version:
            raise ModelError(
                f"candidate coefficients gathered at coefficients version "
                f"{grid.version} cannot predict at version {self._coefficients_version}"
            )
        scalability = grid.scalability
        n_candidates = scalability.shape[0]
        if scalability.shape[1] != n_apps:
            raise ModelError(
                f"the candidate grid has {scalability.shape[1]} applications "
                f"but {n_apps} profiles were supplied"
            )
        interference, partner_mask = grid.interference, grid.partner_mask
        sub_chip, pool_fractions = grid.sub_chip, grid.pool_fractions
        comp_mask, composition = grid.comp_mask, grid.composition
        j_dim = self._basis.j_dim
        h_vecs = [self._basis.h(c) for c in counters_list]
        j_vecs = [self._basis.j(c) for c in counters_list]
        demands = [dram_demand(c) for c in counters_list]
        predictions = np.empty((n_candidates, n_apps), dtype=float)
        for i in range(n_apps):
            # Accumulate in the same order as the scalar path (own term,
            # each interference partner in index order, then the pool
            # terms) so both paths agree; the mask zeroes non-partners
            # (other GIs of a mixed state) per candidate.
            acc = scalability[:, i, :] @ h_vecs[i]
            if interference is not None:
                # Per-candidate victim scale: 1.0 under full-chip keys
                # (exact, preserving pair-era bit-parity), the victim's
                # clamped DRAM demand under sub-chip shared keys —
                # mirroring :meth:`interference_scale` on the scalar path.
                assert sub_chip is not None and partner_mask is not None
                assert pool_fractions is not None
                scale = 1.0 + sub_chip[:, i] * (demands[i] - 1.0)
                co_runner_demand = np.zeros(n_candidates, dtype=float)
                for k in range(n_apps):
                    if k == i:
                        continue
                    acc = acc + partner_mask[:, i, k] * (
                        scale * (interference[:, i, :j_dim] @ j_vecs[k])
                    )
                    co_runner_demand = (
                        co_runner_demand + partner_mask[:, i, k] * demands[k]
                    )
                # Capacity-aware basis terms: skipped outright when no
                # candidate gives this application a sub-chip key (their
                # contribution is exactly 0.0, so the pair-era full-chip
                # hot path stays bit-identical and untaxed); elsewhere the
                # sub-chip mask zeroes the full-chip rows and the gathered
                # pool fraction is 1.0 there so the divisions stay
                # well-defined.
                if sub_chip[:, i].any():
                    acc = acc + sub_chip[:, i] * self._capacity_rows(
                        interference[:, i, j_dim:],
                        h_vecs[i],
                        demands[i],
                        co_runner_demand,
                        pool_fractions[:, i],
                    )
                # Full-chip composition correction at pool fraction 1.0;
                # the mask zeroes candidates whose key has no fitted E or
                # where this application sees fewer than two co-runners,
                # leaving those rows bit-identical to the pair-era
                # expression.
                if comp_mask is not None and comp_mask[:, i].any():
                    assert composition is not None
                    acc = acc + comp_mask[:, i] * self._capacity_rows(
                        composition[:, i],
                        h_vecs[i],
                        demands[i],
                        co_runner_demand,
                        1.0,
                    )
            predictions[:, i] = np.maximum(0.0, acc)
        return predictions

    def _capacity_rows(
        self,
        coefficients: np.ndarray,
        h_vec: np.ndarray,
        victim_demand: float,
        co_runner_demand: np.ndarray,
        pool_fraction: np.ndarray | float,
    ) -> np.ndarray:
        """Per-candidate ``σ·(C_H·H) + C_P·P``, the batched twin of
        :meth:`_add_capacity_terms` (``coefficients`` rows are ``[C_H, C_P]``).
        """
        h_dim = self._basis.h_dim
        terms = capacity_terms(victim_demand, co_runner_demand, pool_fraction)
        return terms[:, 0] * (coefficients[:, :h_dim] @ h_vec) + (
            coefficients[:, h_dim] * terms[:, 1]
            + coefficients[:, h_dim + 1] * terms[:, 2]
        )

    def gather_candidates(
        self,
        candidates: Sequence[tuple[PartitionState, float]],
        n_apps: int,
    ) -> CandidateCoefficients:
        """Coefficient tensors and partner mask of a grid of ``n_apps``-app candidates.

        The gather depends only on the grid and the fitted coefficients —
        not on the profiles being predicted — so a caller that predicts one
        grid for many application groups gathers it once and hands the
        result to :meth:`predict_candidates`, which rejects it once a
        coefficient vector is (re)installed.

        The interference tensor is padded to ``j_dim + h_dim +
        POOL_TERM_DIM`` columns; full-chip keys leave the capacity-aware
        columns zero (and their pool fraction 1.0, keeping the batched
        divisions well-defined).  The composition mask/tensor pair is only
        allocated when a candidate can co-locate three or more
        applications — the N=2 hot path never pays for it.  Each distinct
        state's GI layout is derived once per application; its rows differ
        only in the cap.
        """
        n_candidates = len(candidates)
        scalability = np.empty((n_candidates, n_apps, self._basis.h_dim), dtype=float)
        interference = (
            np.zeros(
                (
                    n_candidates,
                    n_apps,
                    self._basis.j_dim + self._basis.h_dim + POOL_TERM_DIM,
                ),
                dtype=float,
            )
            if n_apps > 1
            else None
        )
        partner_mask = (
            np.zeros((n_candidates, n_apps, n_apps), dtype=float)
            if n_apps > 1
            else None
        )
        sub_chip = (
            np.zeros((n_candidates, n_apps), dtype=float) if n_apps > 1 else None
        )
        pool_fractions = (
            np.ones((n_candidates, n_apps), dtype=float) if n_apps > 1 else None
        )
        comp_mask = (
            np.zeros((n_candidates, n_apps), dtype=float) if n_apps > 2 else None
        )
        composition = (
            np.zeros(
                (n_candidates, n_apps, self._basis.h_dim + POOL_TERM_DIM),
                dtype=float,
            )
            if n_apps > 2
            else None
        )
        # Per state: each application's cap-free key fields and partners.
        layouts: dict[PartitionState, list[tuple[tuple, list[int]]]] = {}
        for ci, (state, power_cap_w) in enumerate(candidates):
            layout = layouts.get(state)
            if layout is None:
                if state.n_apps != n_apps:
                    raise ModelError(
                        f"candidate state {state.describe()} has {state.n_apps} "
                        f"applications but {n_apps} profiles were supplied"
                    )
                layout = layouts[state] = [
                    (
                        HardwareStateKey.cap_free_fields(state, i, self._spec),
                        list(state.interference_partners(i)),
                    )
                    for i in range(n_apps)
                ]
            for i, (fields, partners) in enumerate(layout):
                key = HardwareStateKey(*fields, power_cap_w)
                self._require_scalability(key)
                scalability[ci, i] = self._scalability[key]
                if interference is not None and partner_mask is not None:
                    if key not in self._interference:
                        raise NotFittedError(
                            f"no interference coefficients fitted for state {key.describe()}"
                        )
                    coefficients = self._interference[key]
                    interference[ci, i, : coefficients.shape[0]] = coefficients
                    partner_mask[ci, i, partners] = 1.0
                    if self.is_sub_chip_shared(key):
                        assert sub_chip is not None and pool_fractions is not None
                        sub_chip[ci, i] = 1.0
                        pool_fractions[ci, i] = self.pool_fraction(key)
                    elif (
                        comp_mask is not None
                        and len(partners) >= 2
                        and key in self._composition
                    ):
                        assert composition is not None
                        comp_mask[ci, i] = 1.0
                        composition[ci, i] = self._composition[key]
        return CandidateCoefficients(
            self._coefficients_version,
            scalability,
            interference,
            partner_mask,
            sub_chip,
            pool_fractions,
            comp_mask,
            composition,
        )

    def supports_candidate(
        self,
        state: PartitionState,
        power_caps: Iterable[float],
    ) -> bool:
        """Whether every per-application key of ``state`` × ``power_caps`` is fitted.

        The interference term is required exactly when the state co-locates
        more than one application.
        """
        needs_interference = state.n_apps > 1
        caps = tuple(power_caps)
        for index in range(state.n_apps):
            fields = HardwareStateKey.cap_free_fields(state, index, self._spec)
            for power_cap in caps:
                key = HardwareStateKey(*fields, power_cap)
                if key not in self._scalability:
                    return False
                if needs_interference and key not in self._interference:
                    return False
        return True

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialize all coefficients to a JSON-compatible dictionary."""

        def encode(table: Mapping[HardwareStateKey, np.ndarray]) -> list[dict]:
            return [
                {
                    "gpcs": key.gpcs,
                    "mem_slices": key.mem_slices,
                    "option": key.option.value,
                    "power_cap_w": key.power_cap_w,
                    "coefficients": [float(v) for v in coeffs],
                }
                for key, coeffs in table.items()
            ]

        return {
            "format": "repro-linear-perf-model",
            "version": KEY_SCHEMA_VERSION,
            "basis": self._basis.name,
            "spec": self._spec.name,
            "scalability": encode(self._scalability),
            "interference": encode(self._interference),
            "composition": encode(self._composition),
        }

    @classmethod
    def from_dict(
        cls,
        data: dict,
        basis: BasisFunctions = DEFAULT_BASIS,
        spec: GPUSpec | None = None,
    ) -> "LinearPerfModel":
        """Rebuild a model from :meth:`to_dict` output.

        ``spec`` defaults to the built-in spec whose full name the document
        recorded; pass it explicitly when the model was fitted against a
        custom :class:`~repro.gpu.spec.GPUSpec`.
        """
        if data.get("format") != "repro-linear-perf-model":
            raise ModelError("not a linear-performance-model document")
        version = data.get("version")
        if version != KEY_SCHEMA_VERSION:
            raise ModelError(
                f"model document uses key schema v{version!r} but this build "
                f"expects v{KEY_SCHEMA_VERSION} (v2 added the GPU Instance's "
                f"memory-slice count to the keys, v3 the capacity-aware "
                f"saturating interference basis of sub-chip shared keys); "
                f"retrain the model to regenerate its coefficients"
            )
        if data.get("basis") != basis.name:
            raise ModelError(
                f"model was fitted with basis {data.get('basis')!r} but "
                f"{basis.name!r} was supplied"
            )
        stored_spec_name = str(data.get("spec", ""))
        if spec is None:
            spec = builtin_spec_named(stored_spec_name)
            if spec is None:
                raise ModelError(
                    f"model document was fitted for spec {stored_spec_name!r}, "
                    f"which is not a built-in spec; pass the matching GPUSpec "
                    f"to from_dict explicitly"
                )
        elif stored_spec_name and spec.name != stored_spec_name:
            raise ModelError(
                f"model document was fitted for spec {stored_spec_name!r} but "
                f"{spec.name!r} was supplied"
            )

        def decode_key(entry: dict) -> HardwareStateKey:
            return HardwareStateKey(
                entry["gpcs"],
                entry["mem_slices"],
                MemoryOption(entry["option"]),
                entry["power_cap_w"],
            )

        model = cls(basis, spec=spec)
        for entry in data.get("scalability", []):
            model.set_scalability_coefficients(decode_key(entry), np.array(entry["coefficients"]))
        for entry in data.get("interference", []):
            model.set_interference_coefficients(decode_key(entry), np.array(entry["coefficients"]))
        for entry in data.get("composition", []):
            model.set_composition_coefficients(decode_key(entry), np.array(entry["coefficients"]))
        return model

    # ------------------------------------------------------------------
    def _require_scalability(self, key: HardwareStateKey) -> None:
        if key not in self._scalability:
            raise NotFittedError(
                f"no scalability coefficients fitted for state {key.describe()}; "
                f"fitted states: {[k.describe() for k in self.fitted_scalability_states()]}"
            )


def required_state_keys(
    states: Iterable[PartitionState],
    power_caps: Iterable[float],
    spec: GPUSpec,
) -> tuple[HardwareStateKey, ...]:
    """Every per-application hardware state implied by states × power caps."""
    keys: set[HardwareStateKey] = set()
    for state in states:
        for power_cap in power_caps:
            for index in range(state.n_apps):
                keys.add(HardwareStateKey.from_state(state, index, power_cap, spec))
    return tuple(sorted(keys, key=HardwareStateKey.sort_key))
