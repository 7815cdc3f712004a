"""Simulated GPU hardware substrate.

This subpackage models the pieces of an NVIDIA A100-class GPU that the
paper's methodology depends on:

* :mod:`repro.gpu.spec` — the static hardware specification (GPCs, memory
  slices, pipe throughputs, power-model parameters).
* :mod:`repro.gpu.scheme` — the partition schemes deciding which states a
  spec can realize and the memory domains each state's groups own.
* :mod:`repro.gpu.clocks` — the DVFS (clock/voltage scaling) model.
* :mod:`repro.gpu.power` — the chip power model and the power-cap governor
  that throttles the clock to honour a chip-level power limit.
* :mod:`repro.gpu.mig` — the MIG (Multi-Instance GPU) partitioning model:
  the partition states (S1–S4) explored by the paper and their N-way
  enumeration.
"""

from repro.gpu.spec import (
    A100_SPEC,
    A30_SPEC,
    GPU_SPECS,
    GPUSpec,
    H100_SPEC,
    Pipe,
    spec_by_name,
)
from repro.gpu.clocks import DVFSModel
from repro.gpu.power import InstanceLoad, PowerModel
from repro.gpu.mig import (
    CORUN_STATES,
    GPC_TO_MEM_SLICES,
    VALID_INSTANCE_SIZES,
    InstanceAllocation,
    MemoryOption,
    PartitionState,
    S1,
    S2,
    S3,
    S4,
    enumerate_corun_states,
    enumerate_partition_states,
    solo_state,
    solo_states,
)

__all__ = [
    "A100_SPEC",
    "A30_SPEC",
    "H100_SPEC",
    "GPU_SPECS",
    "spec_by_name",
    "GPUSpec",
    "Pipe",
    "DVFSModel",
    "PowerModel",
    "InstanceLoad",
    "MemoryOption",
    "PartitionState",
    "InstanceAllocation",
    "GPC_TO_MEM_SLICES",
    "VALID_INSTANCE_SIZES",
    "CORUN_STATES",
    "S1",
    "S2",
    "S3",
    "S4",
    "enumerate_corun_states",
    "enumerate_partition_states",
    "solo_state",
    "solo_states",
]
