"""MIG (Multi-Instance GPU) partitioning model.

MIG partitions an A100 hierarchically:

* **GPU Instances (GIs)** own GPCs *and* LLC/HBM memory slices.  Memory is
  completely isolated between different GIs.
* **Compute Instances (CIs)** live inside a GI and own a subset of its GPCs.
  All CIs of one GI *share* the GI's LLC/HBM resources.

The paper exploits exactly this hierarchy to expose two memory options for a
pair of co-located applications (Figures 2 and 3):

* **private** — one GI per application: no interference, but each
  application only sees its own memory slices (less bandwidth).
* **shared** — one large GI containing both applications as CIs: both can
  use the full chip bandwidth, at the cost of LLC/HBM interference.

:class:`PartitionState` is an immutable *description* of a partitioning
decision (how many GPCs per application + the memory option).  This is the
``S`` variable of the paper's optimization problems; the four states
explored in the evaluation are exported as :data:`S1` … :data:`S4`.  The
spec's :class:`~repro.gpu.scheme.PartitionScheme` decides whether a state
is realizable, and :func:`enumerate_partition_states` yields every state
it accepts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.errors import PartitioningError, SpecificationError
from repro.gpu.scheme import MemoryOption
from repro.gpu.spec import A100_SPEC, GPU_SPECS, GPUSpec

#: Memory slices granted to a GPU Instance of a given GPC size on the A100
#: (the paper, Section 3: "when we utilize 1, 2, 3, 4, or 7 GPCs with the
#: private option, 1, 2, 4, 4, or 8 LLC/HBM modules are assigned").
#: Aliases the A100 spec's profile table so there is one source of truth.
GPC_TO_MEM_SLICES: Mapping[int, int] = A100_SPEC.mig_mem_slices

#: Partition sizes any built-in :class:`~repro.gpu.spec.GPUSpec` offers —
#: the union over the spec registry (no 5- or 6-GPC instances exist on any
#: built-in part; the 8 comes from the MI300X's full-chip SPX mode).
#: Per-spec validity is checked by :meth:`PartitionState.validate_against`.
VALID_INSTANCE_SIZES: tuple[int, ...] = tuple(
    sorted({size for spec in GPU_SPECS.values() for size in spec.mig_instance_sizes})
)


#: One application in ``describe()`` text: ``4GPCs``, or ``4GPCs@g1`` when mixed.
_DESCRIBED_APP = re.compile(r"(\d+)GPCs(?:@g(\d+))?")
#: ``describe()`` text: ``[label(]apps/Option[)]``, apps joined by ``-``.
_DESCRIPTION = re.compile(
    rf"(?:(?P<label>.+)\()?"
    rf"(?P<apps>{_DESCRIBED_APP.pattern}(?:-{_DESCRIBED_APP.pattern})*)"
    rf"/(?P<option>{'|'.join(option.value.capitalize() for option in MemoryOption)})"
    rf"(?(label)\))"
)


def _normalize_groups(groups: Sequence[int]) -> tuple[int, ...]:
    """Relabel group ids to be 0-based in order of first appearance."""
    mapping: dict[int, int] = {}
    for group in groups:
        if group not in mapping:
            mapping[group] = len(mapping)
    return tuple(mapping[group] for group in groups)


@dataclass(frozen=True)
class InstanceAllocation:
    """Resources visible to one application under a partition state.

    Attributes
    ----------
    gpcs:
        Number of GPCs allocated to the application.
    mem_slices:
        Number of LLC/HBM slices whose bandwidth the application can use.
        Under the shared option this is the full chip's slice count.
    """

    gpcs: int
    mem_slices: int

    def __post_init__(self) -> None:
        if self.gpcs not in VALID_INSTANCE_SIZES:
            raise SpecificationError(
                f"{self.gpcs} GPCs is not a valid instance size; "
                f"valid sizes are {VALID_INSTANCE_SIZES}"
            )
        if self.mem_slices <= 0:
            raise SpecificationError("mem_slices must be positive")


@dataclass(frozen=True)
class PartitionState:
    """A resource-partitioning and job-allocation decision (the ``S`` knob).

    Attributes
    ----------
    gpc_allocations:
        GPCs allocated to each co-located application, in application order
        (``gpc_allocations[i]`` belongs to ``App(i+1)``).  A single-element
        tuple describes a solo run on a partition.
    option:
        The LLC/HBM sharing option.
    label:
        Optional short name (``"S1"`` … ``"S4"`` for the paper's states).
    gi_groups:
        Only for the *mixed* option: ``gi_groups[i]`` is the GPU-Instance
        group application ``i`` belongs to.  Group ids must be 0-based and
        numbered in order of first appearance; at least two groups must
        exist and at least one group must hold two or more applications
        (otherwise the state is simply private or shared).
    """

    gpc_allocations: tuple[int, ...]
    option: MemoryOption
    label: str | None = None
    gi_groups: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.gpc_allocations:
            raise SpecificationError("at least one application allocation is required")
        for gpcs in self.gpc_allocations:
            if gpcs not in VALID_INSTANCE_SIZES:
                raise SpecificationError(
                    f"{gpcs} GPCs is not a valid instance size; "
                    f"valid sizes are {VALID_INSTANCE_SIZES}"
                )
        option = MemoryOption(self.option)
        object.__setattr__(self, "option", option)
        if option is MemoryOption.MIXED:
            self._validate_gi_groups()
        elif self.gi_groups is not None:
            raise SpecificationError(
                f"gi_groups is only meaningful for the mixed option, not {option.value}"
            )
        # Hashed once, to the value the dataclass hash would compute: the
        # allocator's candidate tables key on whole pools of states.
        object.__setattr__(
            self,
            "_hash",
            hash((self.gpc_allocations, option, self.label, self.gi_groups)),
        )
        # The GI groups, derived once: every model key reads them.
        n_apps = len(self.gpc_allocations)
        if option is MemoryOption.PRIVATE:
            groups = tuple((i,) for i in range(n_apps))
        elif option is MemoryOption.SHARED:
            groups = (tuple(range(n_apps)),)
        else:
            assert self.gi_groups is not None
            groups = tuple(
                tuple(i for i, g in enumerate(self.gi_groups) if g == group)
                for group in range(max(self.gi_groups) + 1)
            )
        object.__setattr__(self, "_groups", groups)
        object.__setattr__(
            self, "_group_of", {i: members for members in groups for i in members}
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined,no-any-return]

    def __reduce__(self) -> tuple[type["PartitionState"], tuple[object, ...]]:
        # Rebuilt through the constructor: string hashes differ between
        # processes, so the stored hash (like the stored groups and the
        # render memos) never travels in a pickle.
        return (
            type(self),
            (self.gpc_allocations, self.option, self.label, self.gi_groups),
        )

    def _validate_gi_groups(self) -> None:
        groups = self.gi_groups
        if groups is None:
            raise SpecificationError("the mixed option requires gi_groups")
        if len(groups) != len(self.gpc_allocations):
            raise SpecificationError(
                f"gi_groups has {len(groups)} entries for "
                f"{len(self.gpc_allocations)} applications"
            )
        if tuple(groups) != _normalize_groups(groups):
            raise SpecificationError(
                f"gi_groups must use 0-based ids in order of first appearance, got {groups}"
            )
        n_groups = max(groups) + 1
        largest = max(groups.count(group) for group in range(n_groups))
        if n_groups < 2 or largest < 2:
            raise SpecificationError(
                f"a mixed state needs >= 2 GPU Instances with >= 1 multi-application "
                f"instance (got groups {groups}); use private or shared instead"
            )

    # ------------------------------------------------------------------
    @property
    def n_apps(self) -> int:
        """Number of co-located applications described by this state."""
        return len(self.gpc_allocations)

    @property
    def total_gpcs(self) -> int:
        """Total number of GPCs consumed by the state."""
        return sum(self.gpc_allocations)

    def groups(self) -> tuple[tuple[int, ...], ...]:
        """Application indices per GPU Instance, in GI order.

        Under the private option every application lives in its own GI;
        under the shared option one GI hosts everyone; under the mixed
        option the grouping follows ``gi_groups``.
        """
        return self._groups  # type: ignore[attr-defined,no-any-return]

    def group_of(self, index: int) -> tuple[int, ...]:
        """The application indices sharing a GPU Instance with ``index``."""
        members: tuple[int, ...] | None = self._group_of.get(index)  # type: ignore[attr-defined]
        if members is None:
            raise IndexError(f"application index {index} out of range")
        return members

    def interference_partners(self, index: int) -> tuple[int, ...]:
        """Application indices whose interference term couples to ``index``.

        For the private and shared options this is every co-runner — the
        paper's pairwise model, where the private coefficients capture the
        residual power coupling between isolated instances.  For the mixed
        option an application sharing a GPU Instance interferes (cache,
        bandwidth) only with its GI-mates; an application alone in its GI
        behaves exactly like a private placement and couples to everyone
        through its private-option coefficients.
        """
        if not (0 <= index < self.n_apps):
            raise IndexError(f"application index {index} out of range")
        if self.option is MemoryOption.MIXED:
            members = self.group_of(index)
            if len(members) > 1:
                return tuple(j for j in members if j != index)
        return tuple(j for j in range(self.n_apps) if j != index)

    def effective_option(self, index: int) -> MemoryOption:
        """The memory option application ``index`` actually experiences.

        In a mixed state an application alone in its GI behaves like the
        private option, one sharing a GI like the shared option — this is
        what the per-application model keys are derived from.
        """
        if self.option is not MemoryOption.MIXED:
            return self.option
        members = self.group_of(index)
        return MemoryOption.SHARED if len(members) > 1 else MemoryOption.PRIVATE

    def gi_size_for_group(self, members: Sequence[int], spec: GPUSpec) -> int:
        """Compute units of the partition hosting ``members`` on ``spec``.

        Delegates to the spec's partition scheme: under the coupled MIG
        scheme a single-application private GI matches the application's
        size, the shared option uses the full MIG partition, and a mixed
        multi-application GI uses the smallest instance profile that fits
        the group; an independent-axes scheme sizes groups by its NPS
        domains instead.
        """
        return spec.scheme.group_compute_units(spec, self, members)

    def mem_slices_for(self, index: int, spec: GPUSpec) -> int:
        """Memory domains of the partition hosting application ``index``.

        This is the slice count behind the per-application model key: on
        a coupled-slice (MIG) spec a private GI contributes its own
        profile-table slices, the full-chip shared GI the whole chip's,
        and a sub-chip shared GI (mixed layouts) the slices of that
        smaller instance; an independent-axes spec contributes the HBM
        stacks of the hosting NPS domain.
        """
        members = self.group_of(index)
        return spec.scheme.group_mem_domains(spec, self, members)

    def gi_sizes(self, spec: GPUSpec) -> tuple[int, ...]:
        """GPCs of every GPU Instance the state creates, in GI order.

        The multiset of GI sizes is what a MIG reconfiguration actually
        tears down and rebuilds; two states with the same multiset (e.g.
        S1 and S2) can be re-bound without touching any GPU Instance.
        """
        return tuple(
            self.gi_size_for_group(members, spec) for members in self.groups()
        )

    def allocation_for(self, index: int, spec: GPUSpec) -> InstanceAllocation:
        """Resources visible to application ``index`` (0-based) on ``spec``."""
        if not (0 <= index < self.n_apps):
            raise IndexError(f"application index {index} out of range")
        return InstanceAllocation(
            gpcs=self.gpc_allocations[index], mem_slices=self.mem_slices_for(index, spec)
        )

    def allocations(self, spec: GPUSpec) -> tuple[InstanceAllocation, ...]:
        """Resources visible to every application, in application order."""
        return tuple(self.allocation_for(i, spec) for i in range(self.n_apps))

    def swapped(self) -> "PartitionState":
        """The same state with the application order reversed.

        Swapping S1 gives S2, swapping S3 gives S4 — useful when enumerating
        job-allocation alternatives.
        """
        gi_groups = None
        if self.gi_groups is not None:
            reversed_groups = tuple(reversed(self.gi_groups))
            gi_groups = _normalize_groups(reversed_groups)
        return PartitionState(
            gpc_allocations=tuple(reversed(self.gpc_allocations)),
            option=self.option,
            label=None,
            gi_groups=gi_groups,
        )

    def validate_against(self, spec: GPUSpec) -> None:
        """Check that the state is realizable on hardware described by ``spec``.

        Delegates to the spec's partition scheme, which knows whether the
        compute split and memory mode the state implies exist on the part.

        Raises
        ------
        repro.errors.PartitioningError
            If the state needs partition profiles, compute units, or
            memory domains the scheme does not expose on ``spec``.
        """
        spec.scheme.validate_state(spec, self)

    def describe(self) -> str:
        """Human-readable description, e.g. ``"4GPCs-3GPCs/Shared"``.

        Mixed states annotate each application with its GPU-Instance group,
        e.g. ``"1GPCs@g0-1GPCs@g0-2GPCs@g1/Mixed"``, so two states that
        differ only in job allocation stay distinguishable.
        """
        cached = self.__dict__.get("_describe_cache")
        if cached is not None:
            return cached
        if self.option is MemoryOption.MIXED:
            assert self.gi_groups is not None
            gpcs = "-".join(
                f"{g}GPCs@g{group}"
                for g, group in zip(self.gpc_allocations, self.gi_groups)
            )
        else:
            gpcs = "-".join(f"{g}GPCs" for g in self.gpc_allocations)
        name = f"{gpcs}/{self.option.value.capitalize()}"
        described = f"{self.label}({name})" if self.label else name
        # Frozen dataclasses still allow memo attributes via object.__setattr__;
        # every field is immutable, so the rendering can never go stale.
        object.__setattr__(self, "_describe_cache", described)
        return described

    @classmethod
    def from_description(cls, text: str) -> "PartitionState":
        """The inverse of :meth:`describe`, labels and mixed ``@gN`` groups
        included; raises :class:`SpecificationError` for any ``text`` that
        :meth:`describe` would not write."""
        match = _DESCRIPTION.fullmatch(text) if isinstance(text, str) else None
        if match is None:
            raise SpecificationError(f"not a partition-state description: {text!r}")
        apps = _DESCRIBED_APP.findall(match["apps"])
        groups = tuple(int(group) for _, group in apps if group)
        state = cls(
            gpc_allocations=tuple(int(gpcs) for gpcs, _ in apps),
            option=MemoryOption(match["option"].lower()),
            label=match["label"],
            gi_groups=groups or None,
        )
        if state.describe() != text:
            raise SpecificationError(
                f"{text!r} is not the canonical description of {state.describe()!r}"
            )
        return state

    def key(self) -> tuple:
        """Hashable identity ignoring the label (used as model dictionary key)."""
        cached = self.__dict__.get("_key_cache")
        if cached is not None:
            return cached
        if self.gi_groups is not None:
            cached = (self.gpc_allocations, self.option.value, self.gi_groups)
        else:
            cached = (self.gpc_allocations, self.option.value)
        object.__setattr__(self, "_key_cache", cached)
        return cached

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


# ----------------------------------------------------------------------
# The four co-run states evaluated by the paper (Table 5) and the solo
# states used for the scalability observations (Section 3.1).
# ----------------------------------------------------------------------
S1 = PartitionState((4, 3), MemoryOption.SHARED, "S1")
S2 = PartitionState((3, 4), MemoryOption.SHARED, "S2")
S3 = PartitionState((4, 3), MemoryOption.PRIVATE, "S3")
S4 = PartitionState((3, 4), MemoryOption.PRIVATE, "S4")

#: The candidate partitioning/allocation states of Table 5, in order.
CORUN_STATES: tuple[PartitionState, ...] = (S1, S2, S3, S4)


def solo_state(gpcs: int, option: MemoryOption | str = MemoryOption.PRIVATE) -> PartitionState:
    """A partition state describing a solo run on ``gpcs`` GPCs.

    With the *private* option the instance owns the memory slices listed in
    :data:`GPC_TO_MEM_SLICES`; with the *shared* option the instance is a CI
    inside a full-GPU GI and therefore sees the whole memory system —
    exactly the two scalability configurations of Figure 4.
    """
    return PartitionState((gpcs,), MemoryOption(option))


def _set_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of ``range(n)`` as canonical group-id tuples.

    Group ids are 0-based in order of first appearance, so every set
    partition is produced exactly once (restricted growth strings).
    """

    def extend(prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        n_groups = max(prefix) + 1 if prefix else 0
        for group in range(n_groups + 1):
            prefix.append(group)
            yield from extend(prefix)
            prefix.pop()

    yield from extend([])


def _mixed_groupings(n_apps: int) -> tuple[tuple[int, ...], ...]:
    """Canonical ``gi_groups`` tuples that qualify as *mixed* layouts."""
    groupings = []
    for groups in _set_partitions(n_apps):
        n_groups = max(groups) + 1
        largest = max(groups.count(g) for g in range(n_groups))
        if n_groups >= 2 and largest >= 2:
            groupings.append(groups)
    return tuple(groupings)


def enumerate_partition_states(
    n_apps: int,
    spec: GPUSpec,
    options: Sequence[MemoryOption] = (
        MemoryOption.SHARED,
        MemoryOption.PRIVATE,
        MemoryOption.MIXED,
    ),
) -> Iterator[PartitionState]:
    """Every realizable ``n_apps``-application partition state on ``spec``.

    This generator is the N-way replacement of the S1–S4 table: states are
    derived from the partition sizes the spec's scheme exposes instead of
    being hard-coded, job allocation is part of the state (every ordering
    of the size split is a distinct state), and the *mixed* option
    enumerates every way of grouping three or more applications into
    memory domains.  Mixed layouts require at least three applications, so
    requesting the option for pairs simply yields nothing.  Combinations
    the scheme rejects (e.g. asymmetric splits on an independent-axes
    part) are filtered by validation, not enumerated specially.
    """
    if n_apps < 1:
        raise SpecificationError(f"n_apps must be >= 1, got {n_apps}")
    if n_apps > spec.scheme.max_co_located(spec):
        # Every application needs at least one compute unit / partition,
        # so no state can exist.
        return
    # PartitionState only accepts sizes from the built-in superset
    # (VALID_INSTANCE_SIZES); a custom spec advertising e.g. a 5-GPC
    # profile cannot appear in partition states, so that size is
    # excluded here rather than crashing.
    sizes = tuple(
        s
        for s in spec.scheme.instance_sizes(spec)
        if s in VALID_INSTANCE_SIZES and s <= spec.mig_gpcs
    )

    def allocation_tuples(
        prefix: list[int], remaining: int
    ) -> Iterator[tuple[int, ...]]:
        # Depth-first in size order: yields the same sequence as filtering
        # itertools.product, but prunes branches whose GPC total already
        # exceeds the chip (no option could ever realize them).
        if remaining == 0:
            yield tuple(prefix)
            return
        budget = spec.mig_gpcs - sum(prefix) - (remaining - 1)
        for size in sizes:
            if size > budget:
                continue
            prefix.append(size)
            yield from allocation_tuples(prefix, remaining - 1)
            prefix.pop()

    for option in options:
        option = MemoryOption(option)
        groupings: Sequence[tuple[int, ...] | None]
        if option is MemoryOption.MIXED:
            groupings = _mixed_groupings(n_apps)
        else:
            groupings = (None,)
        for allocations in allocation_tuples([], n_apps):
            for gi_groups in groupings:
                candidate = PartitionState(allocations, option, gi_groups=gi_groups)
                try:
                    candidate.validate_against(spec)
                except PartitioningError:
                    continue
                yield candidate


def enumerate_corun_states(
    spec: GPUSpec,
    options: Sequence[MemoryOption] = (MemoryOption.SHARED, MemoryOption.PRIVATE),
) -> tuple[PartitionState, ...]:
    """Every realizable two-application partition state on ``spec``.

    The paper evaluates the 4+3 split only (Table 5), but the optimizer is
    written against this generic enumeration so that finer-grained future
    hardware (the paper's Section 6 discussion) is covered by construction.
    Kept as the two-application special case of
    :func:`enumerate_partition_states`.
    """
    return tuple(enumerate_partition_states(2, spec, options))


def mixed_training_states(
    spec: GPUSpec, n_apps: int = 3
) -> tuple[PartitionState, ...]:
    """A covering subset of mixed states for the calibration sweep.

    Keeps one representative per distinct multiset of per-application
    ``(gpcs, GI memory slices, effective option)`` triples.  Together the
    representatives reach every sub-chip shared hardware-state key any
    mixed layout on ``spec`` can produce — larger groups only recombine
    the same GI profiles, so the three-application sweep covers the keys
    of four-way (and wider) mixed layouts too — while dropping the
    allocation permutations that would merely repeat the same keys.
    """
    representatives: dict[tuple, PartitionState] = {}
    for state in enumerate_partition_states(n_apps, spec, (MemoryOption.MIXED,)):
        signature = tuple(
            sorted(
                (
                    state.gpc_allocations[i],
                    state.mem_slices_for(i, spec),
                    state.effective_option(i).value,
                )
                for i in range(state.n_apps)
            )
        )
        representatives.setdefault(signature, state)
    return tuple(representatives.values())


def shared_training_states(
    spec: GPUSpec, n_apps: int = 3
) -> tuple[PartitionState, ...]:
    """A covering subset of ``n_apps``-way full-chip shared states.

    Keeps one representative per distinct multiset of per-application GPC
    sizes.  These are the calibration sweep behind the N≥3 composition
    stage (:meth:`repro.core.training.ModelTrainer.fit_composition`): on
    the full-chip pool, pair-fitted interference coefficients compose
    additively over co-runners and overestimate the combined pressure, so
    the composition correction is fitted from states that actually host
    three or more applications.  Allocation permutations of the same size
    multiset would reach the same hardware-state keys and are dropped.
    """
    representatives: dict[tuple, PartitionState] = {}
    for state in enumerate_partition_states(n_apps, spec, (MemoryOption.SHARED,)):
        signature = tuple(sorted(state.gpc_allocations))
        representatives.setdefault(signature, state)
    return tuple(representatives.values())
