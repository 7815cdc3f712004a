"""repro — reproduction of *"Optimizing Hardware Resource Partitioning and
Job Allocations on Modern GPUs under Power Caps"* (Arima et al., ICPP
Workshops 2022) on a simulated A100-class substrate.

The library is organised in layers (see the Architecture map in
``README.md`` for the full map):

* :mod:`repro.gpu` — simulated A100-class GPU: MIG partitioning, chip power
  model, power-cap governor.
* :mod:`repro.workloads` — analytic models of the paper's benchmarks
  (CUTLASS GEMM variants, Rodinia kernels, stream/randomaccess) and the
  Table 7 classification / Table 8 co-run pairs.
* :mod:`repro.sim` — the execution simulator (roofline composition, LLC/HBM
  interference, DVFS under power caps, measurement noise, profiling).
* :mod:`repro.profiling` — profile collection and the profile database.
* :mod:`repro.core` — the paper's contribution: Table 4 basis functions,
  the linear-regression performance model, least-squares calibration,
  throughput/fairness/energy-efficiency metrics, the two optimization
  problems, and the Resource & Power Allocator.
* :mod:`repro.cluster` — the co-scheduler and the event-driven cluster
  simulator around the allocator (the paper's Figure 1 job-manager
  context); a batch of jobs is a trace whose jobs all arrive at ``t=0``.
* :mod:`repro.analysis` — regeneration of every table and figure of the
  paper's evaluation, plus ablations.
* :mod:`repro.api` — the typed service layer: frozen request/response
  dataclasses and the session-caching :class:`PlannerService` facade (the
  surface the CLI and embedding callers use).

Quickstart
----------
>>> from repro import PlannerService, DecisionRequest
>>> service = PlannerService()                          # trains once per spec
>>> result = service.decide(
...     DecisionRequest(apps=("igemm4", "stream"), power_cap_w=230)
... )
>>> result.state, result.power_cap_w
"""

from repro._version import VERSION, __version__
from repro.api import (
    DecisionRequest,
    DecisionResult,
    PlannerService,
    PlannerSession,
    SimulationRequest,
    SimulationResult,
    StatesRequest,
    StatesResult,
)
from repro.config import DEFAULT_CONFIG, DEFAULT_POWER_CAPS, EvaluationConfig
from repro.core import (
    AllocationDecision,
    LinearPerfModel,
    ModelTrainer,
    OfflineTrainer,
    OnlineAllocator,
    PaperWorkflow,
    Problem1Policy,
    Problem2Policy,
    ResourcePowerAllocator,
)
from repro.gpu import (
    A100_SPEC,
    A30_SPEC,
    CORUN_STATES,
    GPU_SPECS,
    GPUSpec,
    H100_SPEC,
    MemoryOption,
    PartitionState,
    S1,
    S2,
    S3,
    S4,
    enumerate_partition_states,
    solo_state,
    spec_by_name,
)
from repro.cluster import (
    ClusterSimulator,
    SimulationConfig,
    SimulationReport,
)
from repro.profiling import ProfileCollector, ProfileDatabase, ProfileRecord
from repro.sim import CoRunResult, NoiseModel, PerformanceSimulator, RunResult
from repro.traces import Trace, bursty_trace, load_trace, poisson_trace, save_trace
from repro.workloads import (
    CORUN_GROUPS,
    CORUN_PAIRS,
    DEFAULT_SUITE,
    BenchmarkSuite,
    CoRunGroup,
    KernelCharacteristics,
    WorkloadClass,
)

__all__ = [
    "__version__",
    "VERSION",
    # Service-layer API
    "PlannerService",
    "PlannerSession",
    "DecisionRequest",
    "DecisionResult",
    "SimulationRequest",
    "SimulationResult",
    "StatesRequest",
    "StatesResult",
    "EvaluationConfig",
    "DEFAULT_CONFIG",
    "DEFAULT_POWER_CAPS",
    # GPU substrate
    "GPUSpec",
    "A100_SPEC",
    "H100_SPEC",
    "A30_SPEC",
    "GPU_SPECS",
    "spec_by_name",
    "MemoryOption",
    "PartitionState",
    "CORUN_STATES",
    "S1",
    "S2",
    "S3",
    "S4",
    "enumerate_partition_states",
    "solo_state",
    # Workloads
    "KernelCharacteristics",
    "WorkloadClass",
    "BenchmarkSuite",
    "DEFAULT_SUITE",
    "CORUN_PAIRS",
    "CORUN_GROUPS",
    "CoRunGroup",
    # Simulator
    "PerformanceSimulator",
    "RunResult",
    "CoRunResult",
    "NoiseModel",
    # Profiling
    "ProfileRecord",
    "ProfileCollector",
    "ProfileDatabase",
    # Core methodology
    "LinearPerfModel",
    "ModelTrainer",
    "ResourcePowerAllocator",
    "AllocationDecision",
    "Problem1Policy",
    "Problem2Policy",
    "OfflineTrainer",
    "OnlineAllocator",
    "PaperWorkflow",
    # Cluster + traces
    "ClusterSimulator",
    "SimulationConfig",
    "SimulationReport",
    "Trace",
    "poisson_trace",
    "bursty_trace",
    "load_trace",
    "save_trace",
]
