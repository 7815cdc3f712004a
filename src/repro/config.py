"""Evaluation-wide configuration defaults.

The values below mirror the paper's evaluation setup (Table 5 and
Section 5): the explored power caps, the candidate partition states, and the
fairness thresholds used by the two optimization problems.  They are
gathered here so that benchmarks, examples, and tests agree on a single
source of truth, while every API also accepts explicit overrides.
:func:`check_count` is the one check for the integer knobs of the
requests and the scheduler configuration.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError
from repro.gpu.mig import CORUN_STATES, PartitionState

#: Power caps explored by the paper (Table 5), in watts.
DEFAULT_POWER_CAPS: tuple[float, ...] = (150.0, 170.0, 190.0, 210.0, 230.0, 250.0)

#: The power cap used by the Problem 1 per-workload comparison (Figure 9).
PROBLEM1_POWER_CAP_W: float = 230.0

#: Fairness threshold used by the Problem 1 evaluation (Figures 9 and 10).
DEFAULT_ALPHA: float = 0.2

#: Fairness thresholds compared for Problem 2 (Figures 11 and 12).
PROBLEM2_ALPHAS: tuple[float, ...] = (0.20, 0.42)

#: Fairness-threshold sweep used by Figure 13.
ALPHA_SWEEP: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.42)

#: GPC counts used for the solo scalability observations (Figures 4 and 5).
SCALABILITY_GPC_COUNTS: tuple[int, ...] = (1, 2, 3, 4, 7)


def check_count(name: str, value: Any, minimum: int | None = 1) -> int:
    """``value`` as a plain ``int``, else a ConfigurationError naming ``name``.

    A count accepts what :func:`operator.index` accepts (``int``,
    ``numpy.int64``, ...) except ``bool``.  A fractional, NaN or infinite
    float would pass a range check and then fail, or be ignored, deep in
    a replay.  ``minimum`` is the smallest count allowed (``None``: any).
    """
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    count = operator.index(value)
    if minimum is not None and count < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {count}")
    return count


@dataclass(frozen=True)
class EvaluationConfig:
    """Bundle of evaluation parameters shared by benches and examples."""

    power_caps: tuple[float, ...] = DEFAULT_POWER_CAPS
    candidate_states: tuple[PartitionState, ...] = CORUN_STATES
    alpha: float = DEFAULT_ALPHA
    problem1_power_cap_w: float = PROBLEM1_POWER_CAP_W
    problem2_alphas: tuple[float, ...] = PROBLEM2_ALPHAS
    alpha_sweep: tuple[float, ...] = ALPHA_SWEEP
    scalability_gpc_counts: tuple[int, ...] = SCALABILITY_GPC_COUNTS

    def __post_init__(self) -> None:
        if not self.power_caps:
            raise ConfigurationError("at least one power cap is required")
        if any(p <= 0 for p in self.power_caps):
            raise ConfigurationError("power caps must be positive")
        if not self.candidate_states:
            raise ConfigurationError("at least one candidate partition state is required")
        if not (0.0 <= self.alpha < 1.0):
            raise ConfigurationError(f"alpha must be in [0, 1), got {self.alpha}")


#: The configuration used throughout the benchmark harnesses.
DEFAULT_CONFIG = EvaluationConfig()
