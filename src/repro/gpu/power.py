"""Chip power model and power-cap governor.

The paper controls the GPU with chip-level power caps set through
``nvidia-smi`` (150 W … 250 W).  On real hardware the driver enforces the
cap by throttling the clock; this module reproduces that behaviour
analytically:

* :meth:`PowerModel.chip_power` computes the chip power for a given
  operating point (relative clock frequency) and a set of *instance loads*
  — per-MIG-instance utilization of the CUDA cores, Tensor Cores, and DRAM
  bandwidth.  It is the one chip-power formula: the engine prices every
  scalar solve with it, and :meth:`PowerModel.total_powers` is its array
  twin for the training sweeps, equal to it bit for bit.
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
            if not _in_unit_range(value):
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")


def _in_unit_range(value: float) -> bool:
    return -1e-9 <= value <= 1.0 + 1e-9


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


class PowerModel:
    """Analytic chip power model with a power-cap governor.

    Parameters
    ----------
    spec:
        Hardware specification supplying the power-model constants; the
        governor's :class:`~repro.gpu.clocks.DVFSModel` (power scaling and
        clock quantization) is built from it.
    """

    def __init__(self, spec: GPUSpec = A100_SPEC) -> None:
        self._spec = spec
        self._dvfs = DVFSModel(spec)

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
    def chip_power(
        self,
        loads: Sequence[tuple[int, float, float, float]],
        relative_frequency: float,
        powered_gpcs: int,
    ) -> float:
        """Total chip power in watts of one row of instance loads.

        Each load is an ``(n_gpcs, cuda_utilization, tensor_utilization,
        dram_bw_fraction)`` tuple, checked as :class:`InstanceLoad` checks
        its fields.  ``powered_gpcs`` counts the GPCs that are powered on
        (idle GPCs still draw their idle power): the full chip, or
        ``spec.mig_gpcs`` in MIG mode.  The sum of the loads' ``n_gpcs``
        must not exceed it.
        """
        spec = self._spec
        if not (0 < powered_gpcs <= spec.n_gpcs):
            raise ConfigurationError(
                f"powered_gpcs must be in (0, {spec.n_gpcs}], got {powered_gpcs}"
            )
        scale = self._dvfs.dynamic_power_scale(relative_frequency)
        busy_gpcs = 0
        gpc_dynamic = 0.0
        total_bw_fraction = 0.0
        for gpcs, cuda, tensor, dram in loads:
            in_range = _in_unit_range(cuda) and _in_unit_range(tensor) and _in_unit_range(dram)
            if not (gpcs > 0 and in_range):
                # The record's own check names the field out of range.
                InstanceLoad(gpcs, cuda, tensor, dram)
            per_gpc = spec.gpc_cuda_power_w * cuda + spec.gpc_tensor_power_w * tensor
            gpc_dynamic += gpcs * per_gpc * scale
            total_bw_fraction += dram
            busy_gpcs += gpcs
        if busy_gpcs > powered_gpcs:
            raise ConfigurationError(
                f"loads occupy {busy_gpcs} GPCs but only {powered_gpcs} are powered"
            )
        return (
            spec.static_power_w
            + powered_gpcs * spec.gpc_idle_power_w
            + gpc_dynamic
            + spec.hbm_idle_power_w
            + spec.hbm_dynamic_power_w * clamp(total_bw_fraction, 0.0, 1.0)
        )

    def total_powers(
        self,
        loads: InstanceLoads,
        relative_frequencies: FloatArray,
        powered_gpcs: int,
    ) -> FloatArray:
        """Row-wise :meth:`chip_power`, one operating point per row.

        Each row adds its instances one at a time in column order, as
        :meth:`chip_power` does, and scales them by the scalar
        :meth:`DVFSModel.dynamic_power_scale`, so every entry equals
        :meth:`chip_power` of that row's loads bit for bit.
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

    # ------------------------------------------------------------------
    # Power-cap governor
    # ------------------------------------------------------------------
    def max_frequency_under_cap(
        self,
        power_at: Callable[[float], float],
        power_cap_w: float,
    ) -> float:
        """Highest quantized relative frequency whose power fits under the cap.

        Parameters
        ----------
        power_at:
            Callable mapping a relative frequency to the chip power in watts
            at that frequency.  The execution engine supplies it because
            the pipe utilizations themselves depend on the operating point
            (a throttled compute-bound kernel stays fully busy; a throttled
            memory-bound kernel becomes *less* compute-utilized), and it
            decides which GPCs are powered.  The governor only compares
            its values against the cap, so a caller may answer a clock it
            has evaluated before from memory.
        power_cap_w:
            The chip-level power cap in watts.

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
        if power_at(hi) <= power_cap_w:
            return 1.0
        if power_at(lo) > power_cap_w:
            return self._dvfs.quantize(lo)
        # The power model is monotonically increasing in f for fixed work,
        # so a plain bisection finds the crossing point.
        while hi - lo > _GOVERNOR_TOLERANCE:
            mid = 0.5 * (lo + hi)
            if power_at(mid) <= power_cap_w:
                lo = mid
            else:
                hi = mid
        selected = self._dvfs.quantize(lo)
        # Quantization floors the frequency, so the cap still holds; guard
        # against pathological cases where flooring is not possible.
        if power_at(selected) > power_cap_w + 1e-6 and selected > self._spec.min_relative_frequency:
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
        :meth:`max_frequency_under_cap` selects for row ``r``.
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
