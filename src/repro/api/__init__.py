"""The typed service-layer API: the one public surface over the engine.

The paper's offline-train / online-allocate split is exposed here as a
facade whose hot path amortizes training across requests:

* :mod:`repro.api.requests` — frozen request dataclasses
  (:class:`DecisionRequest`, :class:`SimulationRequest`,
  :class:`StatesRequest`) with ``to_dict()``/``from_dict()`` round-tripping;
* :mod:`repro.api.results` — the matching response dataclasses
  (:class:`DecisionResult`, :class:`SimulationResult`,
  :class:`StatesResult`), frozen, carrying the engine's own records where
  it has them and rendering as plain JSON through ``to_dict()``;
* :mod:`repro.api.service` — :class:`PlannerService`, a session-caching
  facade: the first ``decide()`` per ``(spec, training grid, model path)``
  trains (or loads from the fingerprinted model store), every later call
  is pure online allocation.  ``decide_batch()`` fans a list of requests
  over the batched candidate-grid path in one call.

Embed it in three lines::

    from repro.api import PlannerService, DecisionRequest

    service = PlannerService()
    result = service.decide(DecisionRequest(apps=("igemm4", "stream")))

The CLI (:mod:`repro.cli`) is a thin client of exactly this surface.
"""

from repro.api.requests import (
    POLICY_NAMES,
    DecisionRequest,
    LintRequest,
    SimulationRequest,
    StatesRequest,
    decision_requests,
)
from repro.api.results import (
    DecisionResult,
    LintResult,
    PartitionStateRow,
    SimulationResult,
    StatesResult,
)
from repro.api.service import (
    GENERAL_GRID,
    TABLE5_GRID,
    PlannerService,
    PlannerSession,
    ServiceStats,
    SessionKey,
)

__all__ = [
    "POLICY_NAMES",
    "DecisionRequest",
    "LintRequest",
    "SimulationRequest",
    "StatesRequest",
    "decision_requests",
    "DecisionResult",
    "LintResult",
    "PartitionStateRow",
    "SimulationResult",
    "StatesResult",
    "PlannerService",
    "PlannerSession",
    "ServiceStats",
    "SessionKey",
    "TABLE5_GRID",
    "GENERAL_GRID",
]
