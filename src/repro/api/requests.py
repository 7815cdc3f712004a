"""Typed request dataclasses — the input half of the service-layer API.

A request is a frozen, hashable value object that fully describes one call
into the :class:`~repro.api.service.PlannerService`: which applications,
which optimization problem, which hardware spec, and (for simulations)
which trace.  Requests validate their fields at construction (policy, spec,
job mix and application names resolve; counts are integers, and knobs are
finite and in range) so
an embedding caller fails at the boundary with a
:class:`~repro.errors.ConfigurationError` before any training runs,
and they round-trip through ``to_dict()``/``from_dict()`` so the same
payload can travel over JSON (the CLI's ``--json`` mode emits the matching
response types).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Mapping, Sequence

from repro.api.serde import build, checked_kwargs
from repro.cluster.events import SimulationConfig
from repro.config import check_count
from repro.errors import ConfigurationError
from repro.gpu.spec import GPU_SPECS
from repro.workloads.mixes import JOB_MIXES
from repro.workloads.suite import DEFAULT_SUITE

#: The optimization problems the service can solve.
POLICY_NAMES: tuple[str, ...] = ("problem1", "problem2")


def _check_policy(policy: str) -> str:
    if policy not in POLICY_NAMES:
        raise ConfigurationError(
            f"unknown policy {policy!r}; valid policies: {POLICY_NAMES}"
        )
    return policy


def _check_spec(spec: str) -> str:
    if spec not in GPU_SPECS:
        raise ConfigurationError(
            f"unknown hardware spec {spec!r}; valid specs: {tuple(sorted(GPU_SPECS))}"
        )
    return spec


def _reject_non_finite(request: object, *fields: str) -> None:
    """Fail at the boundary on a NaN or infinite knob.

    Every comparison with NaN is false, so deeper range checks would let
    it through silently; an infinite rate or cap passes them too, and then
    hangs a trace generator or names a cap no model was fitted for.  The
    latency and budget knobs are checked by ``SimulationConfig``.
    """
    for name in fields:
        value = getattr(request, name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(f"{name} must be a finite number, got {value}")


def _check_policy_knobs(request: "DecisionRequest | SimulationRequest") -> None:
    """Range-check the knobs every policy takes (the policies repeat this
    for library callers, but only after a session has trained), and reject
    a fixed cap under Problem 2, which chooses the cap itself."""
    if not 0.0 <= request.alpha < 1.0:
        raise ConfigurationError(f"alpha must be in [0, 1), got {request.alpha}")
    if request.power_cap_w is not None and request.power_cap_w <= 0:
        raise ConfigurationError(
            f"power_cap_w must be positive, got {request.power_cap_w}"
        )
    if request.power_cap_w is not None and request.policy == "problem2":
        raise ConfigurationError(
            "power_cap_w is Problem 1's fixed cap; policy 'problem2' chooses "
            "the cap from the trained grid, so leave power_cap_w unset"
        )


@dataclass(frozen=True)
class DecisionRequest:
    """One allocation question: the best ``(S, P)`` for a co-location group.

    Attributes
    ----------
    apps:
        Application names in allocation order (two reproduce the paper's
        pairs; more enable N-way co-location).
    policy:
        ``"problem1"`` (throughput at a fixed cap) or ``"problem2"``
        (energy efficiency, cap chosen by the allocator).
    power_cap_w:
        The fixed cap for Problem 1; ``None`` selects the spec grid's 92 %
        point (230 W on the A100), matching the CLI default.  Problem 2
        chooses the cap itself and rejects one.
    alpha:
        Fairness threshold for either policy.
    spec:
        Hardware specification name (``"a100"``, ``"h100"``, ``"a30"``,
        or the independent-axes ``"mi300x"``).
    model_path:
        Optional model-cache file: load trained coefficients from it if it
        exists, otherwise train once and save them there.
    """

    apps: tuple[str, ...]
    policy: str = "problem1"
    power_cap_w: float | None = None
    alpha: float = 0.2
    spec: str = "a100"
    model_path: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.apps, str):
            raise ConfigurationError(
                f"apps must be a sequence of application names, not the bare "
                f"string {self.apps!r} (wrap it: apps=({self.apps!r},))"
            )
        object.__setattr__(self, "apps", tuple(str(app) for app in self.apps))
        if not self.apps:
            raise ConfigurationError("a decision request needs at least one application")
        unknown = [app for app in self.apps if app not in DEFAULT_SUITE]
        if unknown:
            raise ConfigurationError(
                f"unknown application(s) {unknown}; valid applications: "
                f"{DEFAULT_SUITE.names()}"
            )
        _check_policy(self.policy)
        _check_spec(self.spec)
        object.__setattr__(self, "alpha", float(self.alpha))
        if self.power_cap_w is not None:
            object.__setattr__(self, "power_cap_w", float(self.power_cap_w))
        _reject_non_finite(self, "power_cap_w", "alpha")
        _check_policy_knobs(self)

    @property
    def group_size(self) -> int:
        """Number of co-located applications the request describes."""
        return len(self.apps)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-safe; tuples serialize as lists)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DecisionRequest":
        """Rebuild a request from :meth:`to_dict` output (unknown keys fail)."""
        return build(cls, data)


@dataclass(frozen=True)
class SimulationRequest:
    """One trace replay through the event-driven cluster simulator.

    ``trace_path`` replays a recorded trace; otherwise a synthetic trace is
    generated (Poisson by default, bursty when ``burst_size`` is set) from
    the named job ``mix``.  ``n_jobs`` and ``burst_size`` shape synthetic
    traces only, so a request with a ``trace_path`` rejects them.  The
    scheduling knobs mirror
    :class:`~repro.cluster.scheduler.SchedulerConfig` and
    :class:`~repro.cluster.events.SimulationConfig`; ``power_cap_w`` is
    Problem 1's fixed cap, rejected under ``policy="problem2"``.  The
    request checks the policy knobs, that every count (sizes, job count,
    seed) is an integer, the cluster and queue sizes, and (through a
    ``SimulationConfig``) the repartition latency, the power budget and
    its floor of one minimum cap per node; the trace generators check the
    rate, duration and job count.  All of this runs before any training.
    """

    trace_path: str | None = None
    arrival_rate_per_s: float = 2.0
    duration_s: float = 600.0
    n_jobs: int | None = None
    burst_size: float | None = None
    mix: str = "steady"
    seed: int = 2022
    n_nodes: int = 2
    policy: str = "problem2"
    power_cap_w: float | None = None
    alpha: float = 0.2
    window_size: int = 4
    group_size: int = 2
    repartition_latency_s: float = 0.0
    power_budget_w: float | None = None
    spec: str = "a100"
    model_path: str | None = None
    save_trace_path: str | None = None

    def __post_init__(self) -> None:
        _check_policy(self.policy)
        _check_spec(self.spec)
        if self.mix not in JOB_MIXES:
            raise ConfigurationError(
                f"unknown job mix {self.mix!r}; valid mixes: {tuple(sorted(JOB_MIXES))}"
            )
        _reject_non_finite(
            self, "arrival_rate_per_s", "burst_size", "power_cap_w", "alpha"
        )
        # An infinite window is fine when n_jobs bounds the trace; the
        # generators reject it otherwise.  No arrival time exceeds NaN.
        if isinstance(self.duration_s, float) and math.isnan(self.duration_s):
            raise ConfigurationError("duration_s must be a number, got nan")
        if self.burst_size is not None and self.burst_size <= 0:
            raise ConfigurationError(
                f"burst_size must be positive, got {self.burst_size}"
            )
        if self.trace_path is not None:
            for name in ("n_jobs", "burst_size"):
                if getattr(self, name) is not None:
                    raise ConfigurationError(
                        f"{name} shapes synthetic traces only; it cannot be "
                        f"combined with trace_path"
                    )
        if self.power_cap_w is not None:
            object.__setattr__(self, "power_cap_w", float(self.power_cap_w))
        _check_policy_knobs(self)
        for name in ("n_nodes", "window_size", "group_size"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))
        # Any integer seeds; the trace generators range-check the job count.
        object.__setattr__(self, "seed", check_count("seed", self.seed, minimum=None))
        if self.n_jobs is not None:
            object.__setattr__(
                self, "n_jobs", check_count("n_jobs", self.n_jobs, minimum=None)
            )
        SimulationConfig(
            repartition_latency_s=self.repartition_latency_s,
            power_budget_w=self.power_budget_w,
        ).check_budget(self.n_nodes, GPU_SPECS[self.spec])

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-safe)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationRequest":
        """Rebuild a request from :meth:`to_dict` output (unknown keys fail)."""
        return build(cls, data)


@dataclass(frozen=True)
class StatesRequest:
    """Enumerate the realizable N-application partition states of a spec."""

    n_apps: int
    spec: str = "a100"

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_apps", check_count("n_apps", self.n_apps))
        _check_spec(self.spec)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-safe)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StatesRequest":
        """Rebuild a request from :meth:`to_dict` output (unknown keys fail)."""
        return build(cls, data)


@dataclass(frozen=True)
class LintRequest:
    """One invariant-analysis run over files and directories.

    Attributes
    ----------
    paths:
        Files and directories to analyze (directories are walked
        recursively, skipping fixture corpora and tool caches).
    strict:
        Fail on warnings too, not only on errors — the mode CI runs.
    select:
        Optional subset of rule ids to run (``("RL001", "RL004")``);
        ``None`` runs the full registry.
    """

    paths: tuple[str, ...]
    strict: bool = False
    select: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if isinstance(self.paths, str):
            raise ConfigurationError(
                f"paths must be a sequence, not the bare string "
                f"{self.paths!r} (wrap it: paths=({self.paths!r},))"
            )
        object.__setattr__(self, "paths", tuple(str(path) for path in self.paths))
        if not self.paths:
            raise ConfigurationError("a lint request needs at least one path")
        object.__setattr__(self, "strict", bool(self.strict))
        if self.select is not None:
            select = tuple(str(rule_id) for rule_id in self.select)
            # Validate the enumerable choice at the boundary, like policy
            # and spec names elsewhere in this module.
            from repro.lint.rules import RULES

            unknown = sorted(set(select) - set(RULES))
            if unknown:
                raise ConfigurationError(
                    f"unknown rule id(s) {unknown}; registered rules: "
                    f"{sorted(RULES)}"
                )
            object.__setattr__(self, "select", select)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-safe; tuples serialize as lists)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LintRequest":
        """Rebuild a request from :meth:`to_dict` output (unknown keys fail)."""
        kwargs = checked_kwargs(cls, data)
        if kwargs.get("select") is not None:
            kwargs["select"] = tuple(kwargs["select"])
        return build(cls, kwargs)


def decision_requests(
    groups: Sequence[Sequence[str]], **common: Any
) -> tuple[DecisionRequest, ...]:
    """Convenience fan-out: one :class:`DecisionRequest` per group.

    ``common`` keyword arguments (policy, spec, alpha, ...) apply to every
    request — the typical shape of a :meth:`PlannerService.decide_batch`
    payload.
    """
    return tuple(DecisionRequest(apps=tuple(group), **common) for group in groups)
