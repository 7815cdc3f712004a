"""The paper's contribution: modelling and optimization.

This package implements the methodology of Section 4:

* :mod:`repro.core.features` — the Table 4 basis functions ``H(F)`` and
  ``J(F)`` over the Table 3 counter vector ``F``.
* :mod:`repro.core.model` — the linear-regression relative-performance model
  ``RPerf_i(S, P) = C(S, P)·H(F_i) + Σ_j D(S, P)·J(F_j)``.
* :mod:`repro.core.training` — offline least-squares calibration of the
  coefficients from solo and co-run measurements.
* :mod:`repro.core.metrics` — throughput (weighted speedup), fairness, and
  the model-error statistics.
* :mod:`repro.core.policies` — the two optimization problems (Problem 1:
  throughput under a fairness constraint at a given cap; Problem 2: energy
  efficiency with the cap as a free variable).
* :mod:`repro.core.search` — exhaustive search (used by the paper) and hill
  climbing (the paper's suggested scaling path).
* :mod:`repro.core.optimizer` — the Resource & Power Allocator.
* :mod:`repro.core.workflow` — the offline/online workflow of Figure 7.
* :mod:`repro.core.modelstore` — persistence of trained model coefficients
  (the CLI's ``--model`` cache).
"""

from repro.core.decision import AllocationDecision, CandidateEvaluation
from repro.core.features import (
    DEFAULT_BASIS,
    RAW_COUNTER_BASIS,
    BasisFunctions,
    basis_h,
    basis_j,
)
from repro.core.metrics import (
    fairness,
    fairness_batch,
    geometric_mean,
    weighted_speedup,
    weighted_speedup_batch,
)
from repro.core.model import HardwareStateKey, LinearPerfModel
from repro.core.modelstore import (
    ModelFingerprint,
    cache_path_for,
    load_model,
    save_model,
)
from repro.core.optimizer import ResourcePowerAllocator
from repro.core.policies import Policy, Problem1Policy, Problem2Policy
from repro.core.search import ExhaustiveSearch, HillClimbingSearch, SearchCandidate
from repro.core.training import (
    CoRunMeasurement,
    ModelTrainer,
    SoloMeasurement,
    collect_corun_measurements,
    collect_solo_measurements,
)
from repro.core.workflow import (
    OfflineTrainer,
    OnlineAllocator,
    PaperWorkflow,
    TrainingPlan,
    power_caps_for_spec,
)

__all__ = [
    "AllocationDecision",
    "CandidateEvaluation",
    "BasisFunctions",
    "DEFAULT_BASIS",
    "RAW_COUNTER_BASIS",
    "basis_h",
    "basis_j",
    "weighted_speedup",
    "weighted_speedup_batch",
    "fairness",
    "fairness_batch",
    "geometric_mean",
    "HardwareStateKey",
    "LinearPerfModel",
    "ModelFingerprint",
    "cache_path_for",
    "load_model",
    "save_model",
    "ResourcePowerAllocator",
    "Policy",
    "Problem1Policy",
    "Problem2Policy",
    "ExhaustiveSearch",
    "HillClimbingSearch",
    "SearchCandidate",
    "ModelTrainer",
    "SoloMeasurement",
    "CoRunMeasurement",
    "collect_solo_measurements",
    "collect_corun_measurements",
    "OfflineTrainer",
    "OnlineAllocator",
    "PaperWorkflow",
    "TrainingPlan",
    "power_caps_for_spec",
]
