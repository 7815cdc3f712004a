"""DVFS (dynamic voltage and frequency scaling) model.

The power-cap governor (:mod:`repro.gpu.power`) lowers the chip clock until
the modelled power fits under the cap — exactly what the real driver does
when ``nvidia-smi -pl`` is used.  This module isolates the clock-related
pieces of that behaviour:

* the mapping from a *relative frequency* ``f`` (1.0 = boost clock) to the
  dynamic-power scale factor ``f ** dvfs_exponent``;
* quantization of the continuous frequency returned by the governor's
  bisection to the discrete clock steps a real GPU supports;
* conversion helpers between absolute GHz and relative frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.gpu.spec import A100_SPEC, GPUSpec
from repro.units import clamp


@dataclass(frozen=True)
class ClockState:
    """A concrete operating point of the chip clock domain.

    Attributes
    ----------
    relative:
        Frequency as a fraction of the boost clock (``0 < relative <= 1``).
    ghz:
        Absolute frequency in GHz.
    throttled:
        Whether the governor had to reduce the clock below the boost clock
        to satisfy the active power cap.
    """

    relative: float
    ghz: float
    throttled: bool


class DVFSModel:
    """Clock/voltage scaling behaviour of the simulated GPU.

    Parameters
    ----------
    spec:
        Hardware specification providing clock bounds, the quantization step
        and the dynamic-power exponent.
    """

    def __init__(self, spec: GPUSpec = A100_SPEC) -> None:
        self._spec = spec

    @property
    def spec(self) -> GPUSpec:
        """The hardware specification this model was built from."""
        return self._spec

    @property
    def min_relative(self) -> float:
        """Lowest selectable relative frequency."""
        return self._spec.min_relative_frequency

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_ghz(self, relative: float) -> float:
        """Convert a relative frequency to absolute GHz."""
        self._check_relative(relative)
        return relative * self._spec.max_clock_ghz

    def to_relative(self, ghz: float) -> float:
        """Convert an absolute frequency in GHz to a relative frequency."""
        if ghz <= 0:
            raise ConfigurationError(f"frequency must be positive, got {ghz} GHz")
        return clamp(ghz / self._spec.max_clock_ghz, self.min_relative, 1.0)

    # ------------------------------------------------------------------
    # Power scaling
    # ------------------------------------------------------------------
    def dynamic_power_scale(self, relative: float) -> float:
        """Dynamic-power multiplier at relative frequency ``relative``.

        Dynamic power scales as ``f ** e`` with ``e = spec.dvfs_exponent``;
        at the boost clock the multiplier is exactly 1.
        """
        self._check_relative(relative)
        return float(relative**self._spec.dvfs_exponent)

    def performance_scale(self, relative: float) -> float:
        """Compute-performance multiplier at relative frequency ``relative``.

        Compute-bound work scales linearly with the clock; memory bandwidth
        is modelled as clock-independent (HBM sits in its own clock domain).
        """
        self._check_relative(relative)
        return float(relative)

    # ------------------------------------------------------------------
    # Quantization
    # ------------------------------------------------------------------
    def quantize(self, relative: float) -> float:
        """Snap a relative frequency down to the nearest supported step.

        Real GPUs expose a discrete ladder of clock offsets; the governor's
        continuous bisection result is therefore floored to the step grid
        (flooring, not rounding, so the power cap is never exceeded).
        """
        self._check_relative(relative)
        ghz = relative * self._spec.max_clock_ghz
        step = self._spec.clock_step_ghz
        quantized_ghz = max(self._spec.min_clock_ghz, step * int(ghz / step + 1e-9))
        quantized_ghz = min(quantized_ghz, self._spec.max_clock_ghz)
        return quantized_ghz / self._spec.max_clock_ghz

    def clock_state(self, relative: float) -> ClockState:
        """Build a :class:`ClockState` for a (possibly throttled) frequency."""
        quantized = self.quantize(relative)
        return ClockState(
            relative=quantized,
            ghz=self.to_ghz(quantized),
            throttled=quantized < 1.0 - 1e-9,
        )

    def available_steps(self) -> tuple[float, ...]:
        """All selectable relative frequencies, from lowest to highest."""
        steps = []
        ghz = self._spec.min_clock_ghz
        while ghz < self._spec.max_clock_ghz - 1e-12:
            steps.append(ghz / self._spec.max_clock_ghz)
            ghz += self._spec.clock_step_ghz
        steps.append(1.0)
        return tuple(steps)

    # ------------------------------------------------------------------
    def _check_relative(self, relative: float) -> None:
        if not (0.0 < relative <= 1.0 + 1e-12):
            raise ConfigurationError(
                f"relative frequency must be in (0, 1], got {relative}"
            )
