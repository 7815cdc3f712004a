"""Co-scheduling metrics used by the optimization problems.

* **Throughput** is the *weighted speedup*: the sum of the co-located
  applications' relative performances.  A value above 1 means the co-run
  beats time-sharing the chip.
* **Fairness** is the minimum relative performance, so a constraint
  ``fairness > alpha`` guarantees that no application is starved by
  co-scheduling or power capping.
* **Energy efficiency** (Problem 2's objective) is throughput divided by the
  chip power cap (:class:`~repro.core.policies.Problem2Policy`).
* The model's accuracy is the mean absolute percentage error of its
  estimates (the paper's Fig. 8 statistic).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError


def weighted_speedup(relative_performances: Sequence[float]) -> float:
    """Throughput metric: the sum of per-application relative performances."""
    values = list(relative_performances)
    if not values:
        raise ConfigurationError("weighted speedup needs at least one application")
    return float(sum(values))


def fairness(relative_performances: Sequence[float]) -> float:
    """Fairness metric: the minimum per-application relative performance."""
    values = list(relative_performances)
    if not values:
        raise ConfigurationError("fairness needs at least one application")
    return float(min(values))


def weighted_speedup_batch(relative_performances: np.ndarray) -> np.ndarray:
    """Vectorized throughput over a ``(n_candidates, n_apps)`` grid."""
    matrix = np.asarray(relative_performances, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] == 0:
        raise ConfigurationError(
            f"expected a (n_candidates, n_apps) matrix, got shape {matrix.shape}"
        )
    return matrix.sum(axis=1)


def fairness_batch(relative_performances: np.ndarray) -> np.ndarray:
    """Vectorized fairness over a ``(n_candidates, n_apps)`` grid."""
    matrix = np.asarray(relative_performances, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] == 0:
        raise ConfigurationError(
            f"expected a (n_candidates, n_apps) matrix, got shape {matrix.shape}"
        )
    return matrix.min(axis=1)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean, as used by the paper's cross-workload summaries."""
    values = list(values)
    if not values:
        raise ConfigurationError("geometric mean needs at least one value")
    if any(v <= 0 for v in values):
        raise ConfigurationError("geometric mean requires strictly positive values")
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def relative_error(estimated: float, measured: float) -> float:
    """Absolute relative error ``|estimated - measured| / |measured|``."""
    if measured == 0:
        raise ConfigurationError("relative error undefined for a zero measurement")
    return abs(estimated - measured) / abs(measured)


def mean_absolute_percentage_error(
    estimated: Sequence[float], measured: Sequence[float]
) -> float:
    """Average relative error in percent (the paper's accuracy statistic)."""
    estimated = list(estimated)
    measured = list(measured)
    if len(estimated) != len(measured):
        raise ConfigurationError(
            f"length mismatch: {len(estimated)} estimates vs {len(measured)} measurements"
        )
    if not measured:
        raise ConfigurationError("error statistics need at least one pair")
    return 100.0 * sum(
        relative_error(e, m) for e, m in zip(estimated, measured)
    ) / len(measured)
