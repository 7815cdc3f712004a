"""Chip power model and power-cap governor.

The paper controls the GPU with chip-level power caps set through
``nvidia-smi`` (150 W … 250 W).  On real hardware the driver enforces the
cap by throttling the clock; this module reproduces that behaviour
analytically:

* :class:`PowerModel` computes the chip power for a given operating point
  (relative clock frequency) and a set of *instance loads* — per-MIG-instance
  utilization of the CUDA cores, Tensor Cores, and DRAM bandwidth.
* :meth:`PowerModel.max_frequency_under_cap` plays the role of the driver's
  governor: it finds the highest (quantized) clock at which the modelled
  power stays under the cap.  :meth:`PowerModel.max_frequencies_under_caps`
  is its array form, which runs one governor per row in lockstep for the
  offline training sweeps.

The power decomposition is deliberately simple but captures the effects that
drive the paper's observations:

* Tensor-Core activity is the most power-hungry per GPC, so Tensor-intensive
  kernels (``hgemm`` & friends) are throttled hardest under low caps
  (Figure 5).
* Memory-bound kernels (``stream``) and unscalable kernels (``kmeans``)
  leave the compute pipes mostly idle, so the cap barely affects them.
* Power grows with the number of *active* GPCs, so small partitions are
  naturally less affected by the cap than the full chip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigurationError
from repro.gpu.clocks import DVFSModel
from repro.gpu.spec import A100_SPEC, GPUSpec
from repro.units import clamp

#: Bisection convergence tolerance of the governor, on the relative
#: frequency.  Both governor forms stop on it, which keeps the array form
#: bit-identical to the scalar one.
_GOVERNOR_TOLERANCE = 1e-4


@dataclass(frozen=True)
class InstanceLoad:
    """Steady-state activity of one MIG instance (or of the whole chip).

    Attributes
    ----------
    n_gpcs:
        Number of GPCs executing this load.
    cuda_utilization:
        Average utilization of the CUDA (FP32/FP64) pipes, in ``[0, 1]``.
    tensor_utilization:
        Average utilization of the Tensor-Core pipes, in ``[0, 1]``.
    dram_bw_fraction:
        Achieved DRAM bandwidth as a fraction of the *full chip* peak
        bandwidth, in ``[0, 1]``.
    """

    n_gpcs: int
    cuda_utilization: float
    tensor_utilization: float
    dram_bw_fraction: float

    def __post_init__(self) -> None:
        if self.n_gpcs <= 0:
            raise ConfigurationError(f"n_gpcs must be positive, got {self.n_gpcs}")
        for name, value in (
            ("cuda_utilization", self.cuda_utilization),
            ("tensor_utilization", self.tensor_utilization),
            ("dram_bw_fraction", self.dram_bw_fraction),
        ):
            if not (-1e-9 <= value <= 1.0 + 1e-9):
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")


#: Backwards-compatible alias — a GPC-granularity load is just an
#: :class:`InstanceLoad` with ``n_gpcs`` GPCs.
GPCLoad = InstanceLoad

FloatArray = npt.NDArray[np.float64]


@dataclass(frozen=True)
class InstanceLoads:
    """:class:`InstanceLoad` in array form, with the same range checks.

    Entry ``[r, i]`` of each array describes instance ``i`` of row ``r``;
    a row is one operating point of one run.
    """

    n_gpcs: npt.NDArray[np.int64]
    cuda_utilization: FloatArray
    tensor_utilization: FloatArray
    dram_bw_fraction: FloatArray

    def __post_init__(self) -> None:
        if np.any(self.n_gpcs <= 0):
            raise ConfigurationError(
                f"n_gpcs must be positive, got {self.n_gpcs[self.n_gpcs <= 0][0]}"
            )
        for name, values in (
            ("cuda_utilization", self.cuda_utilization),
            ("tensor_utilization", self.tensor_utilization),
            ("dram_bw_fraction", self.dram_bw_fraction),
        ):
            outside = ~((-1e-9 <= values) & (values <= 1.0 + 1e-9))
            if np.any(outside):
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {values[outside][0]}"
                )


@dataclass(frozen=True)
class PowerBreakdown:
    """Decomposition of the modelled chip power at one operating point."""

    static_w: float
    gpc_idle_w: float
    gpc_dynamic_w: float
    hbm_idle_w: float
    hbm_dynamic_w: float
    relative_frequency: float

    @property
    def total_w(self) -> float:
        """Total chip power in watts."""
        return (
            self.static_w
            + self.gpc_idle_w
            + self.gpc_dynamic_w
            + self.hbm_idle_w
            + self.hbm_dynamic_w
        )


class PowerModel:
    """Analytic chip power model with a power-cap governor.

    Parameters
    ----------
    spec:
        Hardware specification supplying the power-model constants.
    dvfs:
        DVFS model used for power scaling and clock quantization; a default
        one is built from ``spec`` when omitted.
    """

    def __init__(self, spec: GPUSpec = A100_SPEC, dvfs: DVFSModel | None = None) -> None:
        self._spec = spec
        self._dvfs = dvfs if dvfs is not None else DVFSModel(spec)

    @property
    def spec(self) -> GPUSpec:
        """The hardware specification the model was built from."""
        return self._spec

    @property
    def dvfs(self) -> DVFSModel:
        """The DVFS model used by the governor."""
        return self._dvfs

    # ------------------------------------------------------------------
    # Forward power model
    # ------------------------------------------------------------------
    def breakdown(
        self,
        loads: Sequence[InstanceLoad],
        relative_frequency: float,
        powered_gpcs: int | None = None,
    ) -> PowerBreakdown:
        """Compute the power breakdown at a given operating point.

        Parameters
        ----------
        loads:
            Per-instance activity descriptors.  The sum of their ``n_gpcs``
            must not exceed ``powered_gpcs``.
        relative_frequency:
            Chip clock as a fraction of the boost clock.
        powered_gpcs:
            Number of GPCs that are powered on (idle GPCs still draw their
            idle power).  Defaults to the full chip; MIG mode powers only
            ``spec.mig_gpcs``.
        """
        if powered_gpcs is None:
            powered_gpcs = self._spec.n_gpcs
        if not (0 < powered_gpcs <= self._spec.n_gpcs):
            raise ConfigurationError(
                f"powered_gpcs must be in (0, {self._spec.n_gpcs}], got {powered_gpcs}"
            )
        busy_gpcs = sum(load.n_gpcs for load in loads)
        if busy_gpcs > powered_gpcs:
            raise ConfigurationError(
                f"loads occupy {busy_gpcs} GPCs but only {powered_gpcs} are powered"
            )
        scale = self._dvfs.dynamic_power_scale(relative_frequency)
        gpc_dynamic = 0.0
        total_bw_fraction = 0.0
        for load in loads:
            per_gpc = (
                self._spec.gpc_cuda_power_w * load.cuda_utilization
                + self._spec.gpc_tensor_power_w * load.tensor_utilization
            )
            gpc_dynamic += load.n_gpcs * per_gpc * scale
            total_bw_fraction += load.dram_bw_fraction
        total_bw_fraction = clamp(total_bw_fraction, 0.0, 1.0)
        return PowerBreakdown(
            static_w=self._spec.static_power_w,
            gpc_idle_w=powered_gpcs * self._spec.gpc_idle_power_w,
            gpc_dynamic_w=gpc_dynamic,
            hbm_idle_w=self._spec.hbm_idle_power_w,
            hbm_dynamic_w=self._spec.hbm_dynamic_power_w * total_bw_fraction,
            relative_frequency=relative_frequency,
        )

    def total_power(
        self,
        loads: Sequence[InstanceLoad],
        relative_frequency: float,
        powered_gpcs: int | None = None,
    ) -> float:
        """Total chip power in watts at the given operating point."""
        return self.breakdown(loads, relative_frequency, powered_gpcs).total_w

    def total_powers(
        self,
        loads: InstanceLoads,
        relative_frequencies: FloatArray,
        powered_gpcs: int,
    ) -> FloatArray:
        """Row-wise :meth:`total_power`, one operating point per row.

        Each row adds its instances one at a time in column order, as
        :meth:`breakdown` does, and scales them by the scalar
        :meth:`DVFSModel.dynamic_power_scale`, so every entry equals
        :meth:`total_power` of that row's loads bit for bit.
        """
        spec = self._spec
        if not (0 < powered_gpcs <= spec.n_gpcs):
            raise ConfigurationError(
                f"powered_gpcs must be in (0, {spec.n_gpcs}], got {powered_gpcs}"
            )
        scale = np.array(
            [self._dvfs.dynamic_power_scale(f) for f in relative_frequencies.tolist()]
        )
        busy_gpcs: npt.NDArray[np.int64] = np.zeros(scale.shape, dtype=np.int64)
        gpc_dynamic: FloatArray = np.zeros(scale.shape)
        total_bw_fraction: FloatArray = np.zeros(scale.shape)
        for i in range(loads.n_gpcs.shape[1]):
            per_gpc = (
                spec.gpc_cuda_power_w * loads.cuda_utilization[:, i]
                + spec.gpc_tensor_power_w * loads.tensor_utilization[:, i]
            )
            gpc_dynamic += loads.n_gpcs[:, i] * per_gpc * scale
            total_bw_fraction += loads.dram_bw_fraction[:, i]
            busy_gpcs += loads.n_gpcs[:, i]
        if np.any(busy_gpcs > powered_gpcs):
            raise ConfigurationError(
                f"loads occupy {busy_gpcs.max()} GPCs but only {powered_gpcs} are powered"
            )
        clamped_bw_fraction = np.maximum(0.0, np.minimum(total_bw_fraction, 1.0))
        total: FloatArray = (
            spec.static_power_w
            + powered_gpcs * spec.gpc_idle_power_w
            + gpc_dynamic
            + spec.hbm_idle_power_w
            + spec.hbm_dynamic_power_w * clamped_bw_fraction
        )
        return total

    def idle_power(self, powered_gpcs: int | None = None) -> float:
        """Chip power with every pipe idle (no kernels running)."""
        return self.breakdown([], self._spec.min_relative_frequency, powered_gpcs).total_w

    # ------------------------------------------------------------------
    # Power-cap governor
    # ------------------------------------------------------------------
    def max_frequency_under_cap(
        self,
        loads_at: Callable[[float], Sequence[InstanceLoad]],
        power_cap_w: float,
        powered_gpcs: int | None = None,
        tolerance: float = _GOVERNOR_TOLERANCE,
    ) -> float:
        """Highest quantized relative frequency whose power fits under the cap.

        Parameters
        ----------
        loads_at:
            Callable mapping a relative frequency to the instance loads at
            that frequency.  The execution engine supplies this because the
            pipe utilizations themselves depend on the operating point (a
            throttled compute-bound kernel stays fully busy; a throttled
            memory-bound kernel becomes *less* compute-utilized).
        power_cap_w:
            The chip-level power cap in watts.
        powered_gpcs:
            Number of powered GPCs (see :meth:`breakdown`).
        tolerance:
            Bisection convergence tolerance on the relative frequency.

        Returns
        -------
        float
            The selected relative frequency.  If even the lowest clock
            exceeds the cap the lowest clock is returned (a real GPU cannot
            stop the clock entirely either).
        """
        self._spec.validate_power_cap(power_cap_w)
        lo = self._spec.min_relative_frequency
        hi = 1.0

        def power(f: float) -> float:
            return self.total_power(loads_at(f), f, powered_gpcs)

        if power(hi) <= power_cap_w:
            return 1.0
        if power(lo) > power_cap_w:
            return self._dvfs.quantize(lo)
        # The power model is monotonically increasing in f for fixed work,
        # so a plain bisection finds the crossing point.
        while hi - lo > tolerance:
            mid = 0.5 * (lo + hi)
            if power(mid) <= power_cap_w:
                lo = mid
            else:
                hi = mid
        selected = self._dvfs.quantize(lo)
        # Quantization floors the frequency, so the cap still holds; guard
        # against pathological cases where flooring is not possible.
        if power(selected) > power_cap_w + 1e-6 and selected > self._spec.min_relative_frequency:
            selected = self._dvfs.quantize(max(self._spec.min_relative_frequency, lo - self._spec.clock_step_ghz / self._spec.max_clock_ghz))
        return selected

    def max_frequencies_under_caps(
        self,
        power_at: Callable[[npt.NDArray[np.intp], FloatArray], FloatArray],
        power_caps_w: Sequence[float],
    ) -> FloatArray:
        """:meth:`max_frequency_under_cap` for many rows at once, in lockstep.

        ``power_at(rows, frequencies)`` returns the chip power of each of
        ``rows`` (indices into ``power_caps_w``) at its own relative
        frequency.  Every row takes the scalar governor's path: the same
        exit (uncapped, floor or bisection), the same bisection steps with
        a per-row stopping test, the same quantization on Python floats and
        the same floor guard, so entry ``r`` equals what
        :meth:`max_frequency_under_cap` selects for row ``r`` at its
        default tolerance.
        """
        caps = np.array([self._spec.validate_power_cap(cap) for cap in power_caps_w])
        floor = self._spec.min_relative_frequency
        selected: FloatArray = np.ones(caps.shape)
        rows: npt.NDArray[np.intp] = np.arange(caps.size)
        rows = rows[~(power_at(rows, np.ones(rows.shape)) <= caps)]
        floored = power_at(rows, np.full(rows.shape, floor)) > caps[rows]
        selected[rows[floored]] = self._dvfs.quantize(floor)
        rows = rows[~floored]
        lo = np.full(rows.shape, floor)
        hi = np.ones(rows.shape)
        live = hi - lo > _GOVERNOR_TOLERANCE
        while np.any(live):
            mid = 0.5 * (lo[live] + hi[live])
            fits = power_at(rows[live], mid) <= caps[rows[live]]
            lo[live] = np.where(fits, mid, lo[live])
            hi[live] = np.where(fits, hi[live], mid)
            live = hi - lo > _GOVERNOR_TOLERANCE
        chosen = np.array([self._dvfs.quantize(f) for f in lo.tolist()])
        over = power_at(rows, chosen) > caps[rows] + 1e-6
        step = self._spec.clock_step_ghz / self._spec.max_clock_ghz
        for j in np.flatnonzero(over & (chosen > floor)).tolist():
            chosen[j] = self._dvfs.quantize(max(floor, float(lo[j]) - step))
        selected[rows] = chosen
        return selected
