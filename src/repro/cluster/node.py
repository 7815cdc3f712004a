"""Compute nodes: one simulated GPU and the layout and cap it is set to.

A node records the partition state and power cap of its current dispatch.
The engine validates every state and cap it runs, and the event loop
charges repartition latency from its own layout bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.gpu.mig import PartitionState
from repro.gpu.spec import A100_SPEC, GPUSpec
from repro.sim.engine import PerformanceSimulator
from repro.sim.results import CoRunResult


@dataclass
class ComputeNode:
    """One CPU-GPU compute node of the cluster.

    The node owns a :class:`PerformanceSimulator` to "execute" work.  The
    scheduler drives it through :meth:`execute_group` and
    :meth:`execute_exclusive`.  A co-located run records its partition
    state and cap through :meth:`configure` and clears the state through
    :meth:`release` when it finishes.
    """

    node_id: int
    spec: GPUSpec = field(default_factory=lambda: A100_SPEC)
    simulator: PerformanceSimulator | None = None
    busy_until: float = 0.0

    def __post_init__(self) -> None:
        if self.simulator is None:
            self.simulator = PerformanceSimulator(self.spec)
        self._current_state: PartitionState | None = None
        self._power_limit_w = self.spec.default_power_limit_w

    # ------------------------------------------------------------------
    @property
    def current_partition(self) -> PartitionState | None:
        """The MIG partition state currently configured on the node."""
        return self._current_state

    @property
    def power_limit_w(self) -> float:
        """The chip power cap last configured on the node.

        Exclusive runs leave it unchanged, :meth:`release` keeps it, and
        :meth:`reset` restores the spec's default.
        """
        return self._power_limit_w

    def is_free(self, time: float) -> bool:
        """Whether the node is idle at simulated time ``time``."""
        return time >= self.busy_until

    # ------------------------------------------------------------------
    def configure(self, state: PartitionState, power_cap_w: float) -> None:
        """Record a partition state and a power cap for the next run.

        The cap is stored at NVML's milliwatt granularity, as
        ``nvidia-smi -pl`` would set it.  A cap outside the spec's range
        (NaN and infinities included) raises :class:`PowerCapError` and
        leaves the node as it was.
        """
        power_cap_w = self.spec.validate_power_cap(power_cap_w)
        self._power_limit_w = int(round(power_cap_w * 1000)) / 1000
        self._current_state = state

    def release(self) -> None:
        """Clear the partition state after the running jobs finished."""
        self._current_state = None

    def reset(self) -> None:
        """Return to a new node's state: idle from ``t=0`` at the default cap."""
        self.busy_until = 0.0
        self._current_state = None
        self._power_limit_w = self.spec.default_power_limit_w

    # ------------------------------------------------------------------
    def execute_group(
        self,
        kernels,
        state: PartitionState,
        power_cap_w: float,
    ) -> CoRunResult:
        """Run a co-located group (N >= 1) to completion and return the result."""
        if self.simulator is None:  # pragma: no cover - defensive
            raise SchedulingError("node has no simulator attached")
        self.configure(state, power_cap_w)
        try:
            return self.simulator.co_run(list(kernels), state, power_cap_w)
        finally:
            self.release()

    def execute_exclusive(self, kernel) -> float:
        """Run one job exclusively (full GPU, default cap); returns its runtime."""
        if self.simulator is None:  # pragma: no cover - defensive
            raise SchedulingError("node has no simulator attached")
        return self.simulator.reference_time(kernel)
