"""Typed response dataclasses — the output half of the service-layer API.

Responses are frozen value objects.  Where the engine already keeps a fact
in an immutable record, the response carries that record itself instead of
a copy: a decision's candidate table is the solve's own sequence of
:class:`~repro.core.decision.CandidateEvaluation` (a table solve's
:class:`~repro.core.decision.CandidateColumns` builds each record only when
it is read), and a simulation's latency populations are the report's
:class:`~repro.cluster.events.report.LatencyStats`.  ``to_dict()`` renders
every response as plain JSON-safe data and ``from_dict()`` rebuilds an
equal value from it, so a response survives a JSON round trip unchanged.
Rendering helpers (`describe()` on a decision, the carried canonical
summary text on a simulation) let the thin-client CLI print byte-identical
output without touching the engine.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.api.serde import build, checked_kwargs
from repro.cluster.events.report import LatencyStats
from repro.core.decision import CandidateColumns, CandidateEvaluation
from repro.errors import ConfigurationError
from repro.gpu.mig import PartitionState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.events.report import SimulationReport
    from repro.core.decision import AllocationDecision
    from repro.gpu.spec import GPUSpec
    from repro.lint.analyzer import LintReport
    from repro.lint.findings import Finding


def _candidate_dict(evaluation: CandidateEvaluation) -> dict[str, Any]:
    """One candidate as plain data, in the decision document's key order."""
    return {
        "state": evaluation.state.describe(),
        "label": evaluation.state.label,
        "power_cap_w": evaluation.power_cap_w,
        "predicted_rperfs": evaluation.predicted_rperfs,
        "throughput": evaluation.predicted_throughput,
        "fairness": evaluation.predicted_fairness,
        "objective": evaluation.objective,
        "feasible": evaluation.feasible,
    }


#: The keys :func:`_candidate_dict` writes, which a document must carry.
_CANDIDATE_KEYS = sorted(
    "state label power_cap_w predicted_rperfs throughput fairness objective feasible".split()
)


def _candidate_from_dict(data: Mapping[str, Any]) -> CandidateEvaluation:
    """Rebuild one candidate from :func:`_candidate_dict` output."""
    if not isinstance(data, Mapping) or sorted(data) != _CANDIDATE_KEYS:
        raise ConfigurationError(
            f"a candidate needs exactly the keys {_CANDIDATE_KEYS}, got {data!r}"
        )
    state = PartitionState.from_description(data["state"])
    if data["label"] != state.label:
        raise ConfigurationError(
            f"label {data['label']!r} disagrees with state {data['state']!r}"
        )
    return CandidateEvaluation(
        state=state,
        power_cap_w=data["power_cap_w"],
        predicted_rperfs=tuple(float(v) for v in data["predicted_rperfs"]),
        predicted_throughput=data["throughput"],
        predicted_fairness=data["fairness"],
        objective=data["objective"],
        feasible=data["feasible"],
    )


@dataclass(frozen=True)
class DecisionResult:
    """The service's answer to one :class:`~repro.api.requests.DecisionRequest`.

    ``state`` is the human-readable description of the chosen partition /
    allocation state (including its ``S1``-style label when it has one);
    ``evaluations`` is the solve's own sequence of every candidate the
    search examined, in search order, so clients can render the full
    comparison table or re-rank by their own criteria.  A table solve's
    :class:`~repro.core.decision.CandidateColumns` is kept as it is and
    builds each record when it is read; any other sequence becomes a
    tuple.  Either way the result compares and hashes as if it held the
    tuple of records, so a ``from_dict`` rebuild equals it.
    """

    policy: str
    apps: tuple[str, ...]
    spec: str
    state: str
    state_label: str | None
    power_cap_w: float
    predicted_rperfs: tuple[float, ...]
    predicted_throughput: float
    predicted_fairness: float
    predicted_objective: float
    candidates_evaluated: int
    evaluations: Sequence[CandidateEvaluation] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "apps", tuple(str(app) for app in self.apps))
        object.__setattr__(
            self, "predicted_rperfs", tuple(float(v) for v in self.predicted_rperfs)
        )
        if not isinstance(self.evaluations, CandidateColumns):
            object.__setattr__(self, "evaluations", tuple(self.evaluations))

    def describe(self) -> str:
        """One-line summary, identical to the engine decision's wording."""
        return (
            f"[{self.policy}] choose {self.state} @ "
            f"{self.power_cap_w:.0f}W (objective={self.predicted_objective:.4f}, "
            f"throughput={self.predicted_throughput:.3f}, "
            f"fairness={self.predicted_fairness:.3f})"
        )

    @classmethod
    def from_decision(
        cls,
        decision: "AllocationDecision",
        apps: Sequence[str],
        spec: str,
    ) -> "DecisionResult":
        """Convert an engine-level :class:`AllocationDecision` (sharing,
        not copying, its candidate sequence)."""
        return cls(
            policy=decision.policy_name,
            apps=tuple(apps),
            spec=spec,
            state=decision.state.describe(),
            state_label=decision.state.label,
            power_cap_w=float(decision.power_cap_w),
            predicted_rperfs=tuple(decision.predicted_rperfs),
            predicted_throughput=float(decision.predicted_throughput),
            predicted_fairness=float(decision.predicted_fairness),
            predicted_objective=float(decision.predicted_objective),
            candidates_evaluated=int(decision.candidates_evaluated),
            evaluations=decision.evaluations,
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-safe; each evaluation becomes a dict)."""
        document = {field.name: getattr(self, field.name) for field in fields(self)}
        document["evaluations"] = tuple(_candidate_dict(e) for e in self.evaluations)
        return document

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DecisionResult":
        """Rebuild from :meth:`to_dict` output (unknown, missing or
        malformed keys and state texts fail)."""
        kwargs = checked_kwargs(cls, data)
        kwargs["evaluations"] = tuple(
            entry
            if isinstance(entry, CandidateEvaluation)
            else _candidate_from_dict(entry)
            for entry in kwargs.get("evaluations", ())
        )
        result = build(cls, kwargs)
        PartitionState.from_description(result.state)
        return result


@dataclass(frozen=True)
class PartitionStateRow:
    """One realizable partition state in a :class:`StatesResult`."""

    state: str
    option: str
    total_gpcs: int
    mem_slices_per_app: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "mem_slices_per_app", tuple(int(v) for v in self.mem_slices_per_app)
        )

    @classmethod
    def from_state(cls, state: "PartitionState", spec: "GPUSpec") -> "PartitionStateRow":
        """Convert one engine-level partition state on ``spec``."""
        return cls(
            state=state.describe(),
            option=state.option.value,
            total_gpcs=state.total_gpcs,
            mem_slices_per_app=tuple(a.mem_slices for a in state.allocations(spec)),
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-safe)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PartitionStateRow":
        """Rebuild from :meth:`to_dict` output (unknown keys fail)."""
        return build(cls, data)


@dataclass(frozen=True)
class StatesResult:
    """The realizable partition states of one :class:`StatesRequest`.

    ``spec`` echoes the request's spec name; ``spec_description`` is the
    hardware specification's display name (used in the CLI footer line).
    """

    spec: str
    spec_description: str
    n_apps: int
    states: tuple[PartitionStateRow, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def n_states(self) -> int:
        """Number of realizable states."""
        return len(self.states)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-safe; nested states become dicts)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StatesResult":
        """Rebuild from :meth:`to_dict` output (unknown keys fail)."""
        kwargs = checked_kwargs(cls, data)
        kwargs["states"] = tuple(
            entry
            if isinstance(entry, PartitionStateRow)
            else PartitionStateRow.from_dict(entry)
            for entry in kwargs.get("states", ())
        )
        return build(cls, kwargs)


@dataclass(frozen=True)
class SimulationResult:
    """Online metrics of one :class:`~repro.api.requests.SimulationRequest`.

    Carries the structured metrics of the event-driven replay plus the
    canonical human-readable renderings (``trace_summary`` and
    ``report_summary``), which the thin-client CLI prints verbatim — the
    service renders once, every client displays identically.  Node ids in
    ``final_power_allocation_w`` are strings so the document survives JSON
    round-trips unchanged.
    """

    label: str
    spec: str
    n_jobs: int
    n_nodes: int
    makespan_s: float
    sustained_throughput_jobs_per_s: float
    wait: LatencyStats
    turnaround: LatencyStats
    utilization: float
    energy_wh: float
    co_scheduled_jobs: int
    exclusive_jobs: int
    profile_runs: int
    events_processed: int
    repartitions: int
    repartition_time_s: float
    mig_instance_changes: int
    power_rebalances: int
    final_power_allocation_w: dict[str, float]
    peak_queue_length: int
    trace_summary: str
    report_summary: str

    @classmethod
    def from_report(
        cls, report: "SimulationReport", trace_summary: str, spec: str
    ) -> "SimulationResult":
        """Convert an engine-level :class:`SimulationReport`."""
        return cls(
            label=report.label,
            spec=spec,
            n_jobs=report.n_jobs,
            n_nodes=report.n_nodes,
            makespan_s=float(report.makespan_s),
            sustained_throughput_jobs_per_s=float(
                report.sustained_throughput_jobs_per_s
            ),
            wait=report.wait,
            turnaround=report.turnaround,
            utilization=float(report.utilization),
            energy_wh=float(report.energy_wh),
            co_scheduled_jobs=report.co_scheduled_jobs,
            exclusive_jobs=report.exclusive_jobs,
            profile_runs=report.profile_runs,
            events_processed=report.events_processed,
            repartitions=report.repartitions,
            repartition_time_s=float(report.repartition_time_s),
            mig_instance_changes=report.mig_instance_changes,
            power_rebalances=report.power_rebalances,
            final_power_allocation_w={
                str(node_id): float(cap)
                for node_id, cap in sorted(report.final_power_allocation_w.items())
            },
            peak_queue_length=report.peak_queue_length,
            trace_summary=trace_summary,
            report_summary=report.summary(),
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-safe; nested latency stats become dicts)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationResult":
        """Rebuild from :meth:`to_dict` output (unknown keys fail)."""
        kwargs = checked_kwargs(cls, data)
        for field_name in ("wait", "turnaround"):
            value = kwargs.get(field_name)
            if value is not None and not isinstance(value, LatencyStats):
                kwargs[field_name] = build(LatencyStats, value)
        allocation = kwargs.get("final_power_allocation_w")
        if allocation is not None:
            kwargs["final_power_allocation_w"] = {
                str(node_id): float(cap) for node_id, cap in allocation.items()
            }
        return build(cls, kwargs)


@dataclass(frozen=True)
class LintResult:
    """The analyzer's answer to one :class:`~repro.api.requests.LintRequest`.

    ``clean`` is the exit-status verdict the CLI maps to its exit code:
    no error findings, and under ``strict`` no findings at all.  Findings
    arrive sorted (path, line, column, rule id), so two runs over the same
    tree render byte-identically.
    """

    findings: tuple[Finding, ...]
    files_scanned: int
    suppressed: int
    strict: bool
    clean: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "findings", tuple(self.findings))

    @property
    def n_errors(self) -> int:
        """Number of error-severity findings."""
        return sum(1 for f in self.findings if f.severity == "error")

    @property
    def n_warnings(self) -> int:
        """Number of warning-severity findings."""
        return sum(1 for f in self.findings if f.severity == "warning")

    @classmethod
    def from_report(cls, report: "LintReport", strict: bool) -> "LintResult":
        """Convert an analyzer-level :class:`~repro.lint.analyzer.LintReport`."""
        return cls(
            findings=report.findings,
            files_scanned=report.files_scanned,
            suppressed=report.suppressed,
            strict=strict,
            clean=report.clean(strict),
        )

    def describe(self) -> str:
        """One line per finding plus the verdict summary line."""
        lines = [finding.format() for finding in self.findings]
        verdict = "clean" if self.clean else "FAILED"
        mode = " (strict)" if self.strict else ""
        lines.append(
            f"{verdict}{mode}: {len(self.findings)} finding(s) "
            f"({self.n_errors} error(s), {self.n_warnings} warning(s)), "
            f"{self.suppressed} suppressed, {self.files_scanned} file(s) scanned"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-safe; nested findings become dicts)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LintResult":
        """Rebuild from :meth:`to_dict` output (unknown keys fail)."""
        # Imported here: the lint package loads the analyzer and its rules,
        # which nothing else on the decide/simulate path needs.
        from repro.lint.findings import Finding

        kwargs = checked_kwargs(cls, data)
        kwargs["findings"] = tuple(
            entry if isinstance(entry, Finding) else build(Finding, entry)
            for entry in kwargs.get("findings", ())
        )
        return build(cls, kwargs)
