"""Deterministic measurement noise.

Real measurements on the A100 are noisy (clock jitter, contention from the
host, thermal state).  The paper's model error (9.7 % / 14.5 %) partly
reflects that noise.  The simulator therefore perturbs every "measured"
elapsed time by a small multiplicative factor.

The noise is *deterministic*: the factor is a pure function of a key
describing the run (benchmark, partition state, application index, power
cap) and of the seed.  Repeating the same run yields the same
"measurement", which keeps the whole evaluation reproducible and lets tests
reason about exact values while still giving the regression model something
realistic to fight against.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections.abc import Sequence

from repro.config import check_count
from repro.errors import ConfigurationError


class NoiseModel:
    """Multiplicative log-normal measurement noise with deterministic draws."""

    def __init__(self, sigma: float = 0.03, seed: int = 2022) -> None:
        if not (math.isfinite(sigma) and sigma >= 0):
            raise ConfigurationError(f"sigma must be finite and >= 0, got {sigma}")
        self._sigma = float(sigma)
        self._seed = check_count("seed", seed, minimum=None)

    @property
    def sigma(self) -> float:
        """Standard deviation of the underlying normal (log-scale)."""
        return self._sigma

    @property
    def seed(self) -> int:
        """Seed mixed into every draw."""
        return self._seed

    # ------------------------------------------------------------------
    def prefix(self, name: str, state_key: tuple) -> str:
        """The key material of ``name``'s draws on one state, up to the index.

        A draw's material is ``repr((seed, (name, state_key, index,
        round(power_cap_w, 3))))``; a sweep formats this head once per
        (kernel, state), not once per draw.
        """
        return f"({self._seed!r}, ({name!r}, {state_key!r}, "

    def apply(
        self, values: Sequence[float], prefixes: Sequence[str], power_cap_w: float
    ) -> list[float]:
        """One run's ``values``, each scaled by its application's noise factor.

        Application ``index`` draws under ``prefixes[index]`` at
        ``power_cap_w``: its material is hashed with SHA-256 (stable across
        processes, unlike Python's randomized ``hash``), and two 32-bit
        words of the digest drive a Box-Muller transform.
        """
        if self._sigma == 0.0:
            return list(values)
        cap = f"{round(power_cap_w, 3)!r}))"
        measured = []
        for index, (value, prefix) in enumerate(zip(values, prefixes)):
            digest = hashlib.sha256(f"{prefix}{index!r}, {cap}".encode("utf-8")).digest()
            u1_raw, u2_raw = struct.unpack_from("<II", digest)
            # Map to (0, 1]; avoid u1 == 0 which would blow up the log.
            u1 = (u1_raw + 1) / 4294967296.0
            u2 = u2_raw / 4294967296.0
            draw = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            # Clip extreme draws so a single unlucky key cannot distort the
            # evaluation the way a 5-sigma outlier would.
            draw = max(-3.0, min(3.0, draw))
            measured.append(value * math.exp(self._sigma * draw))
        return measured


def no_noise() -> NoiseModel:
    """A noise model that leaves every measurement untouched."""
    return NoiseModel(sigma=0.0)
