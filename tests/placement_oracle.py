"""An independent placement oracle for partition states.

The partition schemes (:mod:`repro.gpu.scheme`) accept or reject a state
by budget arithmetic.  :func:`place_on_chip` checks a state a second way,
by carving its layout out of an empty chip: each GPU Instance (GI) takes
GPCs and memory slices from the chip's free pool, each Compute Instance
(CI) takes GPCs from its GI, and every size must be one of the spec's
instance profiles.
"""

from __future__ import annotations

from repro.errors import PartitioningError


def place_on_chip(spec, state):
    """Carve ``state``'s GIs and CIs out of an empty ``spec`` chip.

    Returns one ``(gi_gpcs, gi_mem_slices, members)`` triple per GI, in GI
    order; each member runs in a CI of its own size inside that GI, and
    the GI owns the profile table's slices for its size.  Raises
    :class:`PartitioningError` when a size has no profile or the chip or
    a GI runs out of room.
    """
    free_gpcs, free_slices = spec.mig_gpcs, spec.n_mem_slices
    placed = []
    for members in state.groups():
        gi_gpcs = state.gi_size_for_group(members, spec)
        if gi_gpcs not in spec.mig_instance_sizes:
            raise PartitioningError(f"no {gi_gpcs}-GPC GI profile on {spec.name}")
        gi_slices = spec.mig_mem_slices[gi_gpcs]
        if gi_gpcs > free_gpcs or gi_slices > free_slices:
            raise PartitioningError(
                f"{state.describe()}: a {gi_gpcs}-GPC GI needs {gi_slices} slices; "
                f"free: {free_gpcs} GPCs, {free_slices} slices"
            )
        free_gpcs -= gi_gpcs
        free_slices -= gi_slices
        gi_free = gi_gpcs
        for index in members:
            ci_gpcs = state.gpc_allocations[index]
            if ci_gpcs not in spec.mig_instance_sizes or ci_gpcs > gi_free:
                raise PartitioningError(
                    f"{state.describe()}: no {ci_gpcs}-GPC CI fits in a GI "
                    f"with {gi_free} free GPCs on {spec.name}"
                )
            gi_free -= ci_gpcs
        placed.append((gi_gpcs, gi_slices, members))
    return tuple(placed)
