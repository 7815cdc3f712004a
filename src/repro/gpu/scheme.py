"""Vendor-neutral partition schemes: compute vs. memory partitioning.

NVIDIA MIG couples the two axes: a GPU Instance's compute size *implies*
its LLC/HBM slice count (the A100's profile table maps 1/2/3/4/7 GPCs to
1/2/4/4/8 slices).  AMD's MI300-class parts decouple them: compute
partitioning (MCP modes SPX/DPX/QPX/CPX splitting 8 XCDs) and memory
partitioning (NPS modes splitting 8 HBM stacks) are configured
*independently*.

A :class:`PartitionScheme` is the strategy object a
:class:`~repro.gpu.spec.GPUSpec` carries to answer every question the
rest of the library used to answer with NVIDIA slice arithmetic:

* which compute-partition sizes exist (:meth:`~PartitionScheme.instance_sizes`),
* whether a :class:`~repro.gpu.mig.PartitionState` is realizable
  (:meth:`~PartitionScheme.validate_state`),
* how many compute units and memory domains the group hosting an
  application owns (:meth:`~PartitionScheme.group_compute_units`,
  :meth:`~PartitionScheme.group_mem_domains`) — the numbers behind
  ``HardwareStateKey`` derivation,
* which applications share a bandwidth pool in the simulator
  (:meth:`~PartitionScheme.memory_pools`),
* how many applications can co-locate at all
  (:meth:`~PartitionScheme.max_co_located`).

:class:`CoupledSliceScheme` reimplements the MIG behaviour bit-identical
to the pre-scheme code; :class:`IndependentAxesScheme` implements the
MI300X-style MCP×NPS cross product.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from repro.errors import PartitioningError, SpecificationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpu.mig import PartitionState
    from repro.gpu.spec import GPUSpec


class MemoryOption(str, Enum):
    """LLC/HBM sharing option between co-located applications."""

    #: Each application gets its own GPU Instance (isolated memory slices).
    PRIVATE = "private"
    #: One GPU Instance hosts all applications as Compute Instances
    #: (memory resources shared; full-chip bandwidth visible to everyone).
    SHARED = "shared"
    #: Applications are split into several GPU Instances, at least one of
    #: which hosts two or more applications as Compute Instances.  Memory is
    #: isolated *between* the GIs and shared *inside* each GI — the finer
    #: granularity the paper's Section 6 points to for larger groups.
    MIXED = "mixed"


@dataclass(frozen=True)
class MemoryPool(object):
    """One memory domain of a realized partition state.

    Attributes
    ----------
    members:
        Application indices drawing bandwidth from this domain, in
        application order.
    contended:
        Whether the members contend for the pool (more than one member,
        or a shared full-chip pool).  Uncontended pools need no
        interference modelling.
    """

    members: tuple[int, ...]
    contended: bool


@dataclass(frozen=True)
class PartitionScheme(object):
    """Strategy mapping partition states to compute units / memory domains.

    Subclasses are frozen, field-light dataclasses so that two
    :class:`~repro.gpu.spec.GPUSpec` instances configured identically
    stay equal (``spec == A100_SPEC`` is used for grid dispatch).
    """

    def instance_sizes(self, spec: "GPUSpec") -> tuple[int, ...]:
        """Compute-partition sizes (in GPCs/XCDs) realizable on ``spec``."""
        raise NotImplementedError

    def validate_state(self, spec: "GPUSpec", state: "PartitionState") -> None:
        """Raise :class:`~repro.errors.PartitioningError` if unrealizable."""
        raise NotImplementedError

    def group_compute_units(
        self, spec: "GPUSpec", state: "PartitionState", members: Sequence[int]
    ) -> int:
        """Compute units of the partition hosting ``members`` on ``spec``."""
        raise NotImplementedError

    def group_mem_domains(
        self, spec: "GPUSpec", state: "PartitionState", members: Sequence[int]
    ) -> int:
        """Memory domains of the partition hosting ``members`` on ``spec``."""
        raise NotImplementedError

    def max_co_located(self, spec: "GPUSpec") -> int:
        """Most applications one chip can host under this scheme."""
        raise NotImplementedError

    def memory_pools(
        self, spec: "GPUSpec", state: "PartitionState"
    ) -> tuple[MemoryPool, ...]:
        """The memory domains of ``state``, one pool per application group.

        A pool is *contended* when several applications draw from it or
        when the (full-chip) shared option puts everyone in one domain —
        exactly the cases the interference model prices.
        """
        return tuple(
            MemoryPool(
                members=tuple(members),
                contended=state.option is MemoryOption.SHARED or len(members) > 1,
            )
            for members in state.groups()
        )


@dataclass(frozen=True)
class CoupledSliceScheme(PartitionScheme):
    """NVIDIA-MIG-style partitioning: compute size implies slice count.

    A GPU Instance of ``g`` GPCs owns the memory slices of the spec's
    profile table (``mig_mem_slices[g]``); the shared option hosts every
    application inside one full-MIG-partition GI.  This reproduces the
    pre-scheme behaviour bit-identically.
    """

    def instance_sizes(self, spec: "GPUSpec") -> tuple[int, ...]:
        """The spec's MIG instance profile sizes."""
        return tuple(spec.mig_instance_sizes)

    def group_compute_units(
        self, spec: "GPUSpec", state: "PartitionState", members: Sequence[int]
    ) -> int:
        """GPCs of the GPU Instance hosting ``members``.

        A single-application private GI matches the application's size;
        the shared option uses the full MIG partition; a mixed
        multi-application GI uses the smallest profile that fits.
        """
        if state.option is MemoryOption.SHARED:
            return spec.mig_gpcs
        total = sum(state.gpc_allocations[i] for i in members)
        if len(members) == 1:
            return total
        return spec.smallest_instance_holding(total)

    def group_mem_domains(
        self, spec: "GPUSpec", state: "PartitionState", members: Sequence[int]
    ) -> int:
        """Profile-table slices of the GI hosting ``members``."""
        return spec.instance_mem_slices(
            self.group_compute_units(spec, state, members)
        )

    def max_co_located(self, spec: "GPUSpec") -> int:
        """One 1-GPC instance per application at most."""
        return spec.mig_gpcs

    def validate_state(self, spec: "GPUSpec", state: "PartitionState") -> None:
        """Check instance profiles, GPC budget, and slice budget."""
        for gpcs in state.gpc_allocations:
            if gpcs not in spec.mig_instance_sizes:
                raise PartitioningError(
                    f"state {state.describe()} uses a {gpcs}-GPC instance but "
                    f"{spec.name} only offers sizes {spec.mig_instance_sizes}"
                )
        if state.option is MemoryOption.SHARED:
            needed_gpcs = state.total_gpcs
            needed_slices = 0
        else:
            try:
                gi_sizes = [
                    self.group_compute_units(spec, state, members)
                    for members in state.groups()
                ]
            except SpecificationError as exc:
                raise PartitioningError(f"state {state.describe()}: {exc}") from None
            needed_gpcs = sum(gi_sizes)
            needed_slices = sum(spec.instance_mem_slices(size) for size in gi_sizes)
        if needed_gpcs > spec.mig_gpcs:
            raise PartitioningError(
                f"state {state.describe()} needs {needed_gpcs} GPCs but MIG "
                f"exposes only {spec.mig_gpcs}"
            )
        if needed_slices > spec.n_mem_slices:
            raise PartitioningError(
                f"state {state.describe()} needs {needed_slices} memory slices "
                f"but the chip has only {spec.n_mem_slices}"
            )


@dataclass(frozen=True)
class IndependentAxesScheme(PartitionScheme):
    """MI300X-style partitioning: compute and memory modes are independent.

    Compute partitioning is *symmetric*: the chip splits into ``p`` equal
    partitions of ``g`` compute units each (SPX/DPX/QPX/CPX over 8 XCDs
    corresponds to ``g`` ∈ {8, 4, 2, 1}), so every application of a state
    must request the same size ``g`` and ``g`` must divide the chip.
    Memory partitioning is an NPS mode splitting the ``n_mem_slices``
    HBM stacks into ``N`` equal domains, with ``N`` drawn from
    ``nps_modes``:

    * **shared** — NPS1: one domain, every application sees the whole
      memory system.
    * **private** — NPS\\ ``p``: one domain per compute partition, each
      application owns ``n_mem_slices / p`` stacks.
    * **mixed** — NPS\\ ``N`` with ``N`` equal to the number of
      application groups: each group shares one domain of
      ``n_mem_slices / N`` stacks.  Every group must hold at least two
      applications (a singleton group would reach a private-style key no
      solo sweep calibrates) and fit inside the ``p / N`` compute
      partitions of its domain.
    """

    nps_modes: tuple[int, ...] = (1, 2, 4, 8)

    def instance_sizes(self, spec: "GPUSpec") -> tuple[int, ...]:
        """Profile sizes that evenly split the chip's compute partition."""
        return tuple(
            s for s in spec.mig_instance_sizes if spec.mig_gpcs % s == 0
        )

    def _symmetric_size(self, spec: "GPUSpec", state: "PartitionState") -> int:
        """The common per-application size ``g``, or raise."""
        sizes = set(state.gpc_allocations)
        if len(sizes) != 1:
            raise PartitioningError(
                f"state {state.describe()}: {spec.name} partitions compute "
                f"symmetrically; all applications must request the same size, "
                f"got {state.gpc_allocations}"
            )
        g = next(iter(sizes))
        if g not in self.instance_sizes(spec):
            raise PartitioningError(
                f"state {state.describe()} uses a {g}-unit partition but "
                f"{spec.name} only offers sizes {self.instance_sizes(spec)}"
            )
        return g

    def _nps_for(self, spec: "GPUSpec", state: "PartitionState") -> int:
        """The NPS memory mode ``state`` requires on ``spec``."""
        g = self._symmetric_size(spec, state)
        p = spec.mig_gpcs // g
        if state.option is MemoryOption.SHARED:
            return 1
        if state.option is MemoryOption.PRIVATE:
            return p
        return len(state.groups())

    def validate_state(self, spec: "GPUSpec", state: "PartitionState") -> None:
        """Check symmetric compute split and a realizable NPS mode."""
        g = self._symmetric_size(spec, state)
        p = spec.mig_gpcs // g
        if state.n_apps > p:
            raise PartitioningError(
                f"state {state.describe()} places {state.n_apps} applications "
                f"but {g}-unit partitions split {spec.name} into only {p}"
            )
        nps = self._nps_for(spec, state)
        if nps not in self.nps_modes or spec.n_mem_slices % nps != 0:
            raise PartitioningError(
                f"state {state.describe()} needs memory mode NPS{nps} but "
                f"{spec.name} offers NPS modes {self.nps_modes}"
            )
        if state.option is MemoryOption.MIXED:
            partitions_per_domain = p // nps if p % nps == 0 else 0
            for members in state.groups():
                if len(members) < 2:
                    raise PartitioningError(
                        f"state {state.describe()}: under NPS{nps} a "
                        f"single-application group would own a private-style "
                        f"domain; use the private option instead"
                    )
                if len(members) > partitions_per_domain:
                    raise PartitioningError(
                        f"state {state.describe()} packs {len(members)} "
                        f"applications into one NPS{nps} domain, which holds "
                        f"only {partitions_per_domain} {g}-unit partitions"
                    )

    def group_compute_units(
        self, spec: "GPUSpec", state: "PartitionState", members: Sequence[int]
    ) -> int:
        """Compute units visible to the partition(s) hosting ``members``.

        Shared states span the whole chip; a private application owns its
        own ``g``-unit partition; a mixed group owns the compute
        partitions of its NPS domain (``mig_gpcs / N``).
        """
        if state.option is MemoryOption.SHARED:
            return spec.mig_gpcs
        if state.option is MemoryOption.PRIVATE or len(members) == 1:
            return sum(state.gpc_allocations[i] for i in members)
        return spec.mig_gpcs // len(state.groups())

    def group_mem_domains(
        self, spec: "GPUSpec", state: "PartitionState", members: Sequence[int]
    ) -> int:
        """HBM stacks of the NPS domain hosting ``members``."""
        nps = self._nps_for(spec, state)
        return spec.n_mem_slices // nps

    def max_co_located(self, spec: "GPUSpec") -> int:
        """One smallest-size partition per application at most."""
        return spec.mig_gpcs // min(self.instance_sizes(spec))
