"""Cluster-level GPU power budgeting.

Near-future HPC systems run under a facility-wide power constraint; the job
manager therefore has to split a total GPU power budget across nodes before
the per-node allocator can pick its chip-level cap.  The paper motivates
this (Section 2.1 and the Figure 12 discussion: "shifting the extra power
budget to where it can be used more efficiently"); this module supplies the
budget-splitting piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, PowerCapError
from repro.gpu.spec import A100_SPEC, GPUSpec


@dataclass(frozen=True)
class PowerRequest:
    """One node's power request.

    Attributes
    ----------
    node_id:
        The requesting node.
    desired_w:
        The chip cap the node's allocator would like (e.g. the Problem 2
        selection for the pair it is about to run).
    minimum_w:
        The lowest cap the node can accept (the device's minimum).
    """

    node_id: int
    desired_w: float
    minimum_w: float

    def __post_init__(self) -> None:
        # Written so that NaN fails the test.
        if not (0 < self.minimum_w < math.inf and 0 < self.desired_w < math.inf):
            raise ConfigurationError(
                f"node {self.node_id}: power requests must be finite and positive, "
                f"got desired {self.desired_w} W, minimum {self.minimum_w} W"
            )
        if self.desired_w < self.minimum_w:
            raise ConfigurationError(
                f"node {self.node_id}: desired cap {self.desired_w} W below minimum {self.minimum_w} W"
            )


class ClusterPowerManager:
    """Distribute a total GPU power budget across nodes.

    The strategy is deliberately simple and predictable:

    1. every node is guaranteed its minimum cap;
    2. the remaining budget is handed out in proportion to the amount each
       node asked for beyond its minimum;
    3. no node receives more than it asked for — leftover power is reported
       as head-room instead of being force-fed to nodes that cannot use it
       (that head-room is exactly what a cluster operator would shift to
       other racks, as the paper suggests).
    """

    def __init__(self, spec: GPUSpec = A100_SPEC) -> None:
        self._spec = spec

    def distribute(
        self,
        requests: Sequence[PowerRequest],
        total_budget_w: float,
    ) -> Mapping[int, float]:
        """Split ``total_budget_w`` across the requesting nodes.

        Raises
        ------
        repro.errors.PowerCapError
            If the budget cannot even cover every node's minimum cap.
        """
        if not requests:
            return {}
        return self.distribute_demands(
            [r.node_id for r in requests],
            np.array([r.desired_w for r in requests], dtype=np.float64),
            np.array([r.minimum_w for r in requests], dtype=np.float64),
            total_budget_w,
        )

    def distribute_demands(
        self,
        node_ids: Sequence[int],
        desired_w: np.ndarray,
        minimum_w: np.ndarray,
        total_budget_w: float,
        minimum_total_w: float | None = None,
    ) -> dict[int, float]:
        """Array-backed :meth:`distribute` over preallocated per-node demands.

        ``desired_w``/``minimum_w`` are parallel float64 arrays in ``node_ids``
        order; callers in a hot loop (the event simulator) mutate them in place
        and pass ``minimum_total_w`` precomputed, so a rebalance allocates no
        per-node Python objects.  Sums are accumulated sequentially over Python
        floats (not ``np.sum``'s pairwise reduction), so the result is
        bit-identical to the scalar request path for the same inputs.
        """
        if len(node_ids) == 0:
            return {}
        # Every comparison with NaN is False, so NaN fails both tests, and
        # an infinite minimum needs an infinite desired value, which fails.
        if not 0 < total_budget_w < math.inf:
            raise ConfigurationError(
                f"the total power budget must be finite and positive, got {total_budget_w}"
            )
        if not ((0 < minimum_w) & (minimum_w <= desired_w) & (desired_w < math.inf)).all():
            raise ConfigurationError(
                "power demands must be finite and positive, with desired >= minimum"
            )
        minimum_total = (
            float(sum(minimum_w.tolist()))
            if minimum_total_w is None
            else minimum_total_w
        )
        if minimum_total > total_budget_w:
            raise PowerCapError(
                f"budget {total_budget_w} W cannot cover the minimum caps "
                f"({minimum_total} W) of {len(node_ids)} nodes"
            )
        remaining = total_budget_w - minimum_total
        extra_demand = desired_w - minimum_w
        total_extra = float(sum(extra_demand.tolist()))
        if total_extra > 0:
            scale = min(1.0, remaining / total_extra)
            allocation = minimum_w + extra_demand * scale
        else:
            allocation = minimum_w.copy()
        # Clamp to the device's supported range.
        np.minimum(allocation, self._spec.max_power_cap_w, out=allocation)
        return dict(zip(node_ids, allocation.tolist()))

    def headroom(
        self,
        allocation: Mapping[int, float],
        total_budget_w: float,
    ) -> float:
        """Budget left over after an allocation (power available to shift)."""
        return max(0.0, total_budget_w - sum(allocation.values()))
