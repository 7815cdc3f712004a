"""The one numeric helper shared across the library: :func:`clamp`.

The simulator keeps every quantity in SI-ish base units (seconds, watts,
joules, GB/s, TFLOP/s, GHz) and writes them straight into the field names
(``elapsed_s``, ``power_cap_w``, ...), so no conversion helpers are needed.
"""

from __future__ import annotations


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into the closed interval ``[lo, hi]``.

    Raises
    ------
    ValueError
        If ``lo > hi``.
    """
    if lo > hi:
        raise ValueError(f"invalid clamp interval: [{lo}, {hi}]")
    return max(lo, min(hi, value))
