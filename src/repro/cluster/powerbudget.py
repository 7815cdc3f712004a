"""Cluster-level GPU power budgeting.

Near-future HPC systems run under a facility-wide power constraint; the job
manager therefore has to split a total GPU power budget across nodes before
the per-node allocator can pick its chip-level cap.  The paper motivates
this (Section 2.1 and the Figure 12 discussion: "shifting the extra power
budget to where it can be used more efficiently"); this module supplies the
budget-splitting piece: one :class:`ClusterPowerManager` per replay holds
the budget, every node's demand and share, and the rule between them.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, PowerCapError
from repro.gpu.spec import GPUSpec


class ClusterPowerManager:
    """Split a total GPU power budget across a cluster's nodes by demand.

    A node demands the cap its running plan holds (:meth:`request`) and the
    spec's default limit while it is free (:meth:`release`).  The split
    (:meth:`distribute_demands`) is deliberately simple and predictable:

    1. every node is guaranteed the spec's minimum cap;
    2. the remaining budget is handed out in proportion to the amount each
       node asked for beyond its minimum;
    3. no node receives more than it asked for, nor more than the device
       maximum — leftover power is head-room (the budget minus the
       shares) instead of being force-fed to nodes that cannot use it
       (that head-room is exactly what a cluster operator would shift to
       other racks, as the paper suggests).

    The demands live in preallocated float64 arrays in node order, so a
    split allocates no per-node Python objects, and :meth:`rebalance`
    re-splits only when a demand was set since the last split.  The
    constructor makes the first split, with every node free, so the first
    dispatches already respect the budget.
    """

    def __init__(
        self, spec: GPUSpec, node_ids: Sequence[int], total_budget_w: float
    ) -> None:
        # Written so that NaN fails the test.
        if not 0 < total_budget_w < math.inf:
            raise ConfigurationError(
                f"the total power budget must be finite and positive, got {total_budget_w}"
            )
        self._spec = spec
        self._node_ids = list(node_ids)
        self._total_budget_w = total_budget_w
        self._free_w = max(spec.default_power_limit_w, spec.min_power_cap_w)
        self._desired_w = np.full(len(self._node_ids), self._free_w, dtype=np.float64)
        self._minimum_w = np.full(
            len(self._node_ids), spec.min_power_cap_w, dtype=np.float64
        )
        self._minimum_total_w = float(sum(self._minimum_w.tolist()))
        if self._minimum_total_w > total_budget_w:
            raise PowerCapError(
                f"budget {total_budget_w} W cannot cover the minimum caps "
                f"({self._minimum_total_w} W) of {len(self._node_ids)} nodes"
            )
        self._shares = self.distribute_demands()
        self._dirty = False

    @property
    def shares(self) -> Mapping[int, float]:
        """Each node's cap after the last split, by node id."""
        return self._shares

    def request(self, position: int, cap_w: float) -> None:
        """The node at ``position`` in node order now runs at ``cap_w``."""
        self._desired_w[position] = max(cap_w, self._spec.min_power_cap_w)
        self._dirty = True

    def release(self, position: int) -> None:
        """The node at ``position`` in node order is free again."""
        self._desired_w[position] = self._free_w
        self._dirty = True

    def rebalance(self) -> None:
        """Re-split the budget unless no demand was set since the last split.

        Unchanged demands would reproduce the same shares.
        """
        if self._dirty:
            self._shares = self.distribute_demands()
            self._dirty = False

    def cap_for(self, node_id: int, cap_w: float) -> float:
        """``cap_w`` clamped to the node's share, but not below the minimum cap."""
        return max(min(cap_w, self._shares[node_id]), self._spec.min_power_cap_w)

    def distribute_demands(self) -> dict[int, float]:
        """Split the budget across the current demands; shares by node id.

        Sums are accumulated sequentially over Python floats (not
        ``np.sum``'s pairwise reduction), so a split does not depend on the
        array's shape.
        """
        desired_w, minimum_w = self._desired_w, self._minimum_w
        # Every comparison with NaN is False, so a NaN demand fails the test.
        if not ((0 < minimum_w) & (minimum_w <= desired_w) & (desired_w < math.inf)).all():
            raise ConfigurationError(
                "power demands must be finite and positive, with desired >= minimum"
            )
        remaining = self._total_budget_w - self._minimum_total_w
        extra_demand = desired_w - minimum_w
        total_extra = float(sum(extra_demand.tolist()))
        if total_extra > 0:
            scale = min(1.0, remaining / total_extra)
            allocation = minimum_w + extra_demand * scale
        else:
            allocation = minimum_w.copy()
        # Clamp to the device's supported range.
        np.minimum(allocation, self._spec.max_power_cap_w, out=allocation)
        return dict(zip(self._node_ids, allocation.tolist()))
