"""The program's layers, the public entry points that bound them, and the
per-layer metrics derived from the traced run's spans.

Every span name belongs to exactly one layer, so the layers' self times
partition the time spent inside wrapped calls; whatever the traced wall
time holds beyond that (benchmark bookkeeping, unwrapped glue) is reported
as ``trace.unattributed_s``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from spans import SpanTable, Target


def _result_len(args: tuple, result: Any) -> int:
    return len(result)


def _plan_cache_hits(args: tuple, result: Any) -> int:
    # ClusterSimulator.run builds a fresh scheduler per replay, so its
    # counters after the run are that replay's.
    return args[0].scheduler.stats.plan_cache_hits


def _t(module: str, qualname: str, **hooks: Any) -> Target:
    return Target(module=module, qualname=qualname, name=qualname, **hooks)


#: Layer name -> the public entry points wrapped for it.
LAYERS: dict[str, tuple[Target, ...]] = {
    "api": (
        _t("repro.api.service", "PlannerService.session_for"),
        _t("repro.api.service", "PlannerService.decide"),
        _t("repro.api.service", "PlannerService.simulate_trace"),
        _t("repro.api.results", "DecisionResult.from_decision"),
        _t("repro.api.results", "SimulationResult.from_report"),
    ),
    "training": (
        _t("repro.core.training", "collect_solo_measurements"),
        _t("repro.core.training", "collect_corun_measurements", count=_result_len),
        _t("repro.core.training", "ModelTrainer.train"),
    ),
    "profiling": (
        _t("repro.profiling.profiler", "ProfileCollector.collect_into"),
        _t("repro.profiling.profiler", "ProfileCollector.collect"),
    ),
    "engine": (
        _t("repro.sim.engine", "PerformanceSimulator.co_run"),
        _t("repro.sim.engine", "PerformanceSimulator.solo_run"),
        _t("repro.sim.engine", "PerformanceSimulator.reference_time"),
        _t("repro.sim.engine", "PerformanceSimulator.profile"),
        _t("repro.gpu.power", "PowerModel.max_frequency_under_cap"),
    ),
    "node": (
        _t("repro.cluster.node", "ComputeNode.execute_group"),
        _t("repro.cluster.node", "ComputeNode.execute_exclusive"),
        _t("repro.cluster.node", "ComputeNode.configure"),
        _t("repro.cluster.node", "ComputeNode.release"),
    ),
    "scheduler": (
        _t("repro.cluster.scheduler", "CoScheduler.plan_next"),
        _t("repro.cluster.scheduler", "CoScheduler.dispatch"),
    ),
    "allocator": (
        _t("repro.core.workflow", "OnlineAllocator.decide"),
        _t("repro.core.workflow", "OnlineAllocator.candidate_states_for"),
    ),
    "optimizer": (_t("repro.core.optimizer", "ResourcePowerAllocator.solve"),),
    "model": (
        _t("repro.core.model", "LinearPerfModel.predict_candidates", count=_result_len),
        _t("repro.core.model", "LinearPerfModel.predict_corun"),
    ),
    "powerbudget": (
        _t("repro.cluster.powerbudget", "ClusterPowerManager.distribute_demands"),
    ),
    "events": (
        _t(
            "repro.cluster.events.simulator",
            "ClusterSimulator.run",
            observe=_plan_cache_hits,
        ),
        _t("repro.cluster.events.events", "EventHeap.push"),
        _t("repro.cluster.events.events", "EventHeap.push_many"),
        _t("repro.cluster.events.events", "EventHeap.pop_batch", count=_result_len),
    ),
}

#: The import of ``repro.api`` is timed before any wrapper exists and is
#: recorded as one span of its own layer.
IMPORT_SPAN = "import repro.api"

#: Layers whose self time is also reported for the warm phase alone.
ONLINE_LAYERS = (
    "api",
    "allocator",
    "optimizer",
    "model",
    "scheduler",
    "engine",
    "node",
    "powerbudget",
    "events",
)

#: Every per-layer metric as (name, unit, better), in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("import_s", "s", "lower"),
    ("profiling.self_s", "s", "lower"),
    ("training.solo_s", "s", "lower"),
    ("training.corun_s", "s", "lower"),
    ("training.fit_s", "s", "lower"),
    ("training.corun_runs", "count", "lower"),
    ("training.self_s", "s", "lower"),
    ("engine.runs", "count", "lower"),
    ("engine.solves", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.memo_hit_ratio", "ratio", "higher"),
    ("engine.warm_solves_per_op", "count", "lower"),
    ("node.configures", "count", "lower"),
    ("node.emulation_s", "s", "lower"),
    ("node.self_s", "s", "lower"),
    ("scheduler.plans", "count", "lower"),
    ("scheduler.plan_hit_ratio", "ratio", "higher"),
    ("scheduler.plan_self_s", "s", "lower"),
    ("scheduler.dispatch_self_s", "s", "lower"),
    ("allocator.decides", "count", "lower"),
    ("allocator.memo_hit_ratio", "ratio", "higher"),
    ("allocator.infeasible", "count", "lower"),
    ("allocator.self_s", "s", "lower"),
    ("optimizer.solves", "count", "lower"),
    ("optimizer.cache_hit_ratio", "ratio", "higher"),
    ("optimizer.self_s", "s", "lower"),
    ("model.predict_calls", "count", "lower"),
    ("model.candidates", "count", "lower"),
    ("model.self_s", "s", "lower"),
    ("api.self_s", "s", "lower"),
    ("powerbudget.calls", "count", "lower"),
    ("powerbudget.self_s", "s", "lower"),
    ("events.count", "count", "lower"),
    ("events.self_s", "s", "lower"),
    *((f"{layer}.warm_self_s", "s", "lower") for layer in ONLINE_LAYERS),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

#: Self-time metrics that, with ``trace.unattributed_s``, add up to
#: ``trace.wall_s``; the scheduler's two span kinds are reported apart.
LAYER_SELF_METRICS: tuple[str, ...] = (
    "import_s",
    "scheduler.plan_self_s",
    "scheduler.dispatch_self_s",
) + tuple(f"{layer}.self_s" for layer in LAYERS if layer != "scheduler")


def targets() -> list[Target]:
    """Every entry point to wrap, in layer order."""
    return [target for group in LAYERS.values() for target in group]


def _layer_by_name() -> dict[str, str]:
    layer_by_name = {IMPORT_SPAN: "import"}
    for layer, group in LAYERS.items():
        for target in group:
            layer_by_name[target.name] = layer
    return layer_by_name


def _ratio(hits: int, total: int) -> float:
    """``hits / total``, or 0 when nothing was looked up."""
    return hits / total if total else 0.0


def per_layer_metrics(
    table: SpanTable,
    wall_s: float,
    warm_window: tuple[float, float],
    warm_ops: int,
    plan_cache_hits: int,
) -> dict[str, float]:
    """Counts, self times and hit ratios of every layer over the traced run.

    ``wall_s`` is the traced wall time all spans lie in.  ``warm_window``
    is the (start, end) host time of the warm phase: ``warm_*`` metrics
    are restricted to spans that started in it, or normalised by its
    ``warm_ops`` operations.  ``plan_cache_hits`` sums the schedulers'
    own plan-memo hit counters over every replay.

    A memo hit is a call that did not reach the layer below it: an engine
    run without a power-cap solve, an allocator decide without an
    optimizer solve, an optimizer solve without a model prediction.
    """
    layer_by_name = _layer_by_name()
    name_layers = np.array(
        [layer_by_name[name] for name in table.names] + [""], dtype=object
    )
    layer = name_layers[table.name]
    warm = table.within(*warm_window)
    spans = table.mask

    def n(mask: np.ndarray) -> int:
        return int(np.count_nonzero(mask))

    def self_s(mask: np.ndarray) -> float:
        return float(table.self_s[mask].sum())

    def total_s(mask: np.ndarray) -> float:
        return float(table.duration[mask].sum())

    def counted(mask: np.ndarray) -> int:
        return int(table.count[mask].sum())

    runs = spans("PerformanceSimulator.co_run", "PerformanceSimulator.solo_run")
    solves = spans("PowerModel.max_frequency_under_cap")
    decides = spans("OnlineAllocator.decide")
    optimizer_solves = spans("ResourcePowerAllocator.solve")
    batched = spans("LinearPerfModel.predict_candidates")
    scalar = spans("LinearPerfModel.predict_corun")
    plans = spans("CoScheduler.plan_next")
    corun_sweeps = spans("collect_corun_measurements")
    ok = ~table.failed

    metrics: dict[str, float] = {
        "import_s": self_s(layer == "import"),
        "profiling.self_s": self_s(layer == "profiling"),
        "training.solo_s": total_s(spans("collect_solo_measurements")),
        "training.corun_s": total_s(corun_sweeps),
        "training.fit_s": total_s(spans("ModelTrainer.train")),
        "training.corun_runs": counted(corun_sweeps),
        "training.self_s": self_s(layer == "training"),
        "engine.runs": n(runs),
        "engine.solves": n(solves),
        "engine.self_s": self_s(layer == "engine"),
        "engine.memo_hit_ratio": _ratio(
            n(runs & ~table.has_descendant("PowerModel.max_frequency_under_cap")),
            n(runs),
        ),
        "engine.warm_solves_per_op": n(solves & warm) / max(warm_ops, 1),
        "node.configures": n(spans("ComputeNode.configure")),
        "node.emulation_s": self_s(spans("ComputeNode.configure", "ComputeNode.release")),
        "node.self_s": self_s(layer == "node"),
        "scheduler.plans": n(plans),
        "scheduler.plan_hit_ratio": _ratio(plan_cache_hits, n(plans)),
        "scheduler.plan_self_s": self_s(plans),
        "scheduler.dispatch_self_s": self_s(spans("CoScheduler.dispatch")),
        "allocator.decides": n(decides),
        "allocator.memo_hit_ratio": _ratio(
            n(decides & ok & ~table.has_descendant("ResourcePowerAllocator.solve")),
            n(decides),
        ),
        "allocator.infeasible": n(decides & table.failed),
        "allocator.self_s": self_s(layer == "allocator"),
        "optimizer.solves": n(optimizer_solves),
        "optimizer.cache_hit_ratio": _ratio(
            n(
                optimizer_solves
                & ok
                & ~table.has_descendant(
                    "LinearPerfModel.predict_candidates", "LinearPerfModel.predict_corun"
                )
            ),
            n(optimizer_solves),
        ),
        "optimizer.self_s": self_s(layer == "optimizer"),
        "model.predict_calls": n(batched | scalar),
        "model.candidates": counted(batched) + n(scalar),
        "model.self_s": self_s(layer == "model"),
        "api.self_s": self_s(layer == "api"),
        "powerbudget.calls": n(spans("ClusterPowerManager.distribute_demands")),
        "powerbudget.self_s": self_s(layer == "powerbudget"),
        "events.count": counted(spans("EventHeap.pop_batch")),
        "events.self_s": self_s(layer == "events"),
    }
    for name in ONLINE_LAYERS:
        metrics[f"{name}.warm_self_s"] = self_s((layer == name) & warm)
    metrics["trace.wall_s"] = wall_s
    metrics["trace.unattributed_s"] = wall_s - float(table.self_s.sum())
    return metrics
