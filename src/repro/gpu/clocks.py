"""DVFS (dynamic voltage and frequency scaling) model.

The power-cap governor (:mod:`repro.gpu.power`) lowers the chip clock until
the modelled power fits under the cap — exactly what the real driver does
when ``nvidia-smi -pl`` is used.  This module isolates the clock-related
pieces of that behaviour:

* the mapping from a *relative frequency* ``f`` (1.0 = boost clock) to the
  dynamic-power scale factor ``f ** dvfs_exponent``;
* quantization of the continuous frequency returned by the governor's
  bisection to the discrete clock steps a real GPU supports.

The governor works in relative frequencies only, so the module keeps no
GHz conversion helpers.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.gpu.spec import A100_SPEC, GPUSpec


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

    # ------------------------------------------------------------------
    def _check_relative(self, relative: float) -> None:
        if not (0.0 < relative <= 1.0 + 1e-12):
            raise ConfigurationError(
                f"relative frequency must be in (0, 1], got {relative}"
            )
