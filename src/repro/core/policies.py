"""Optimization problems (policies) solved by the allocator (Section 4.2).

* **Problem 1** — the chip power cap ``P`` is given (e.g. dictated by the
  cluster-level power budget); choose the partition state ``S`` that
  maximizes throughput subject to the fairness constraint
  ``Fairness(S, P) > α``.
* **Problem 2** — both ``S`` and ``P`` are free; maximize energy efficiency
  ``Throughput / P`` subject to the same fairness constraint.

Both are expressed through a tiny common interface so the allocator and the
search strategies don't need to know which problem they are solving:
``candidate_power_caps()`` enumerates the allowed caps, ``objective()`` maps
predicted metrics to the quantity being maximized, and ``is_feasible()``
encodes the constraint.  The last two are elementwise arithmetic: the
allocator calls them on one candidate's floats, or once on the NumPy
columns of a whole candidate grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, TypeVar, runtime_checkable

import numpy as np

from repro.config import DEFAULT_POWER_CAPS
from repro.errors import ConfigurationError

#: One candidate's value, or a NumPy column holding one per candidate.
Column = TypeVar("Column", float, np.ndarray)


@runtime_checkable
class Policy(Protocol):
    """Interface every optimization policy exposes to the allocator."""

    name: str
    alpha: float

    def candidate_power_caps(self) -> tuple[float, ...]:
        """Power caps the search may choose from."""
        ...

    def objective(self, throughput: Column, power_cap_w: Column) -> Column:
        """The quantity to maximize, from predicted throughput and the cap."""
        ...

    def is_feasible(self, fairness: Column) -> Column:
        """Whether the fairness constraint is satisfied (elementwise)."""
        ...


@dataclass(frozen=True)
class Problem1Policy:
    """Maximize throughput at a fixed power cap, subject to fairness > α."""

    power_cap_w: float
    alpha: float = 0.2
    name: str = "problem1-throughput"

    def __post_init__(self) -> None:
        if self.power_cap_w <= 0:
            raise ConfigurationError(f"power cap must be positive, got {self.power_cap_w}")
        if not (0.0 <= self.alpha < 1.0):
            raise ConfigurationError(f"alpha must be in [0, 1), got {self.alpha}")

    def candidate_power_caps(self) -> tuple[float, ...]:
        """Problem 1 has no freedom in the cap: only the given value."""
        return (float(self.power_cap_w),)

    def objective(self, throughput: Column, power_cap_w: Column) -> Column:
        """Throughput (weighted speedup) is maximized directly."""
        return throughput

    def is_feasible(self, fairness: Column) -> Column:
        """The paper's constraint ``Fairness > α``."""
        return fairness > self.alpha


@dataclass(frozen=True)
class Problem2Policy:
    """Maximize energy efficiency over both the state and the power cap."""

    alpha: float = 0.2
    power_caps: tuple[float, ...] = DEFAULT_POWER_CAPS
    name: str = "problem2-energy-efficiency"

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha < 1.0):
            raise ConfigurationError(f"alpha must be in [0, 1), got {self.alpha}")
        if not self.power_caps:
            raise ConfigurationError("Problem 2 needs at least one candidate power cap")
        if any(p <= 0 for p in self.power_caps):
            raise ConfigurationError("power caps must be positive")
        object.__setattr__(self, "power_caps", tuple(float(p) for p in self.power_caps))

    def candidate_power_caps(self) -> tuple[float, ...]:
        """All caps of the evaluation grid (Table 5 by default)."""
        return self.power_caps

    def objective(self, throughput: Column, power_cap_w: Column) -> Column:
        """Energy efficiency: throughput divided by the chosen cap."""
        return throughput / power_cap_w

    def is_feasible(self, fairness: Column) -> Column:
        """The paper's constraint ``Fairness > α``."""
        return fairness > self.alpha


#: The two optimization problems, by name: the one list that
#: :func:`make_policy`, the scheduler's config check and the service's
#: requests accept, matched exactly.
POLICY_NAMES: tuple[str, ...] = ("problem1", "problem2")


def make_policy(
    name: str,
    alpha: float,
    power_cap_w: float | None = None,
    power_caps: Sequence[float] = DEFAULT_POWER_CAPS,
) -> Policy:
    """The policy named ``"problem1"`` (at ``power_cap_w``) or ``"problem2"``.

    Problem 2 chooses among ``power_caps``.
    """
    if name == "problem1":
        if power_cap_w is None:
            raise ConfigurationError("Problem 1 requires a given power cap")
        return Problem1Policy(power_cap_w=power_cap_w, alpha=alpha)
    if name == "problem2":
        return Problem2Policy(alpha=alpha, power_caps=tuple(power_caps))
    raise ConfigurationError(f"unknown policy {name!r}; valid names: {POLICY_NAMES}")
