"""N-way co-run workload groups (the Section 6 extension of Table 8).

The paper evaluates two-application workloads only (Table 8, encoded in
:mod:`repro.workloads.pairs`); its Section 6 names co-locating *more* than
two applications as the natural extension.  This module provides the group
generalization: :class:`CoRunGroup` describes a named N-application
workload, and a small set of three- and four-application groups — drawn
from the same benchmark classes as Table 8 — is exported for evaluation and
testing of the N-way engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import WorkloadError
from repro.workloads.kernel import KernelCharacteristics, WorkloadClass
from repro.workloads.pairs import CORUN_PAIRS, CoRunPair
from repro.workloads.suite import BenchmarkSuite, DEFAULT_SUITE


@dataclass(frozen=True)
class CoRunGroup:
    """One co-scheduled workload: a named group of N >= 2 applications.

    Attributes
    ----------
    name:
        Workload name, e.g. ``"TI-MI-US1"``.
    apps:
        Benchmark names in application order (App1 first, matching the
        partition states' ``gpc_allocations`` order).
    """

    name: str
    apps: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.apps) < 2:
            raise WorkloadError(
                f"co-run group {self.name!r} needs >= 2 applications, got {len(self.apps)}"
            )

    @property
    def n_apps(self) -> int:
        """Number of co-located applications."""
        return len(self.apps)

    @property
    def app_names(self) -> tuple[str, ...]:
        """All application names in order (mirrors ``CoRunPair.app_names``)."""
        return self.apps

    def kernels(self, suite: BenchmarkSuite | None = None) -> tuple[KernelCharacteristics, ...]:
        """Resolve every application to its kernel model."""
        resolved = suite or DEFAULT_SUITE
        return tuple(resolved.get(app) for app in self.apps)

    def describe(self) -> str:
        """Human-readable description, e.g. ``"TI-MI-US1 = (hgemm, stream, bfs)"``."""
        return f"{self.name} = ({', '.join(self.apps)})"

    @classmethod
    def from_pair(cls, pair: CoRunPair) -> "CoRunGroup":
        """The group view of a Table 8 pair."""
        return cls(name=pair.name, apps=(pair.app1, pair.app2))


#: Three-application workloads, one per distinct class combination that the
#: Table 8 methodology (one benchmark per class) extends to naturally.
CORUN_TRIPLES: tuple[CoRunGroup, ...] = (
    CoRunGroup("TI-MI-US1", ("hgemm", "stream", "bfs")),
    CoRunGroup("TI-CI-MI1", ("igemm4", "sgemm", "gaussian")),
    CoRunGroup("CI-MI-US1", ("dgemm", "lud", "needle")),
    CoRunGroup("TI-TI-MI1", ("fp16gemm", "tf32gemm", "randomaccess")),
    CoRunGroup("MI-US-US1", ("leukocyte", "kmeans", "dwt2d")),
    CoRunGroup("CI-CI-US1", ("lavaMD", "hotspot", "pathfinder")),
)

#: Four-application workloads exercising the widest co-location the 7-GPC
#: MIG partition supports with at least one GPC per application.
CORUN_QUADS: tuple[CoRunGroup, ...] = (
    CoRunGroup("TI-CI-MI-US1", ("igemm4", "sgemm", "stream", "bfs")),
    CoRunGroup("TI-MI-US-US1", ("hgemm", "lud", "kmeans", "needle")),
    CoRunGroup("CI-CI-MI-US1", ("dgemm", "hotspot", "gaussian", "dwt2d")),
)

#: Every predefined N-way group (pairs excluded; see ``CORUN_PAIRS``).
CORUN_GROUPS: tuple[CoRunGroup, ...] = CORUN_TRIPLES + CORUN_QUADS


def corun_group_names() -> tuple[str, ...]:
    """All predefined N-way workload names, in definition order."""
    return tuple(group.name for group in CORUN_GROUPS)


def corun_group(name: str) -> CoRunGroup:
    """Look up a predefined N-way workload (or a Table 8 pair) by name."""
    for group in CORUN_GROUPS:
        if group.name == name:
            return group
    for pair in CORUN_PAIRS:
        if pair.name == name:
            return CoRunGroup.from_pair(pair)
    known = corun_group_names() + tuple(pair.name for pair in CORUN_PAIRS)
    raise WorkloadError(f"unknown co-run workload {name!r}; known: {known}")


def groups_of_size(n_apps: int) -> tuple[CoRunGroup, ...]:
    """Every predefined group (pairs included) with exactly ``n_apps`` members."""
    if n_apps == 2:
        return tuple(CoRunGroup.from_pair(pair) for pair in CORUN_PAIRS)
    return tuple(group for group in CORUN_GROUPS if group.n_apps == n_apps)


#: Class combinations of the synthetic mixed-state calibration groups.
#: Memory-intensive members are over-represented on purpose: sub-chip
#: shared GIs are where bandwidth contention bites hardest, and the
#: named triples alone leave that corner of the feature space sparse.
_SYNTHETIC_GROUP_CLASSES: tuple[tuple[WorkloadClass, ...], ...] = (
    (WorkloadClass.MI, WorkloadClass.MI, WorkloadClass.US),
    (WorkloadClass.MI, WorkloadClass.MI, WorkloadClass.CI),
    (WorkloadClass.MI, WorkloadClass.CI, WorkloadClass.TI),
    (WorkloadClass.MI, WorkloadClass.US, WorkloadClass.US),
    (WorkloadClass.CI, WorkloadClass.CI, WorkloadClass.MI),
    (WorkloadClass.MI, WorkloadClass.MI, WorkloadClass.MI),
    (WorkloadClass.US, WorkloadClass.CI, WorkloadClass.MI),
    (WorkloadClass.TI, WorkloadClass.MI, WorkloadClass.MI),
    (WorkloadClass.CI, WorkloadClass.US, WorkloadClass.TI),
    (WorkloadClass.MI, WorkloadClass.TI, WorkloadClass.US),
    (WorkloadClass.CI, WorkloadClass.MI, WorkloadClass.US),
    (WorkloadClass.TI, WorkloadClass.CI, WorkloadClass.CI),
)


def _groups_from_classes(
    class_combos: Sequence[tuple[WorkloadClass, ...]],
    group_size: int,
    seed: int,
) -> tuple[tuple[KernelCharacteristics, ...], ...]:
    """Materialize one synthetic kernel group per class combination.

    Combinations shorter than ``group_size`` are cycled; kernels are drawn
    class-first from :class:`SyntheticWorkloadGenerator`, so the sweep
    stays disjoint from the evaluation benchmarks.
    """
    from repro.workloads.synthetic import SyntheticWorkloadGenerator

    generator = SyntheticWorkloadGenerator(seed)
    groups = []
    for classes in class_combos:
        cycled = tuple(classes[i % len(classes)] for i in range(group_size))
        groups.append(tuple(generator.sample_class(c) for c in cycled))
    return tuple(groups)


def synthetic_training_groups(
    group_size: int = 3, seed: int = 2022
) -> tuple[tuple[KernelCharacteristics, ...], ...]:
    """Deterministic synthetic kernel groups for the mixed-state sweep.

    The named triples cover only six benchmark-per-slot combinations,
    which is too sparse to calibrate the sub-chip shared GI keys across
    the victim × co-runner feature plane; these synthetic groups densify
    it (the simulator makes extra calibration workloads free).
    """
    return _groups_from_classes(_SYNTHETIC_GROUP_CLASSES, group_size, seed)


#: Class combinations of the tiny-pool densification groups.  The smallest
#: shared pool a mixed layout creates (two 1-GPC applications inside a
#: 2-GPC/2-slice GPU Instance) saturates at a quarter of the chip's
#: bandwidth, so its capacity-aware basis terms need samples on *both*
#: sides of the clip point: combinations pairing two memory-hungry members
#: (deep saturation), a memory-hungry member with a compute-bound one
#: (victim-side asymmetry), and two light members (the unclipped regime).
_TINY_POOL_GROUP_CLASSES: tuple[tuple[WorkloadClass, ...], ...] = (
    (WorkloadClass.MI, WorkloadClass.MI, WorkloadClass.TI),
    (WorkloadClass.MI, WorkloadClass.MI, WorkloadClass.CI),
    (WorkloadClass.MI, WorkloadClass.CI, WorkloadClass.US),
    (WorkloadClass.CI, WorkloadClass.MI, WorkloadClass.MI),
    (WorkloadClass.MI, WorkloadClass.US, WorkloadClass.MI),
    (WorkloadClass.US, WorkloadClass.MI, WorkloadClass.CI),
    (WorkloadClass.CI, WorkloadClass.CI, WorkloadClass.TI),
    (WorkloadClass.US, WorkloadClass.US, WorkloadClass.MI),
    (WorkloadClass.TI, WorkloadClass.US, WorkloadClass.MI),
    (WorkloadClass.MI, WorkloadClass.TI, WorkloadClass.TI),
    (WorkloadClass.US, WorkloadClass.CI, WorkloadClass.CI),
    (WorkloadClass.TI, WorkloadClass.CI, WorkloadClass.MI),
)


def tiny_pool_training_groups(
    group_size: int = 3, seed: int = 20221
) -> tuple[tuple[KernelCharacteristics, ...], ...]:
    """Extra synthetic groups densifying the tiny-pool mixed-state sweep.

    The capacity-aware interference basis (key schema v3) adds a
    saturating pool term and an excess-demand hinge to sub-chip shared
    keys; fitting their coefficients needs mixed-state rows that populate
    both the clipped and the unclipped regime of the smallest pools —
    far denser coverage than :func:`synthetic_training_groups` alone
    provides around the 2-slice GI.  The seed is disjoint from both the
    general densification sweep and the held-out evaluation generators.
    """
    return _groups_from_classes(_TINY_POOL_GROUP_CLASSES, group_size, seed)
