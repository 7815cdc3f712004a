"""Command-line interface: a thin client of the service-layer API.

A small operator-facing CLI over the library, mirroring how the paper's
workflow would be driven in a deployment:

* ``repro-cli list-benchmarks`` — show the benchmark suite and its classes;
* ``repro-cli classify`` — run the Table 7 classification rule;
* ``repro-cli scalability KERNEL`` — the Figure 4/5 scalability curves for
  one benchmark;
* ``repro-cli decide APP [APP ...]`` — train the model and print the best
  partition state / power cap for a co-location group of any size
  (Problem 1 or Problem 2), optionally on a non-A100 ``--spec``;
* ``repro-cli states N`` — enumerate the realizable N-application
  partition states of a GPU spec;
* ``repro-cli simulate`` — replay a job trace (from a file, or synthetic
  Poisson/bursty arrivals) through the event-driven cluster simulator and
  print online metrics (tail latencies, utilization, energy);
* ``repro-cli accuracy`` — the Section 5.2.1 model-error statistic;
* ``repro-cli figure N`` — regenerate the data behind one of the paper's
  figures (4, 5, 6, 8, 9, 10, 11, 12 or 13);
* ``repro-cli lint [PATH ...]`` — the AST-based invariant analyzer
  (determinism and cache-coherence rules RL001–RL006; see
  :mod:`repro.lint`), ``--strict`` failing on warnings too.

The service-backed commands (``decide``, ``simulate``, ``states``,
``lint``) only parse arguments, build a typed request, call
:class:`~repro.api.PlannerService`, and render the typed response — the
engine plumbing (trainer, suite, allocator, model cache) lives behind the
service.  Each of them also takes ``--json`` to emit the response
dataclass's ``to_dict()`` as machine-readable JSON instead of text.

Exit status: 0 on success, and on a library error one stable code per
failure family (see :data:`EXIT_CODE_MAP`): 2 for configuration / input
problems, 3 for infeasible optimization problems, 4 for a rejected model
cache.  ``lint`` additionally exits 1 when the analysis itself ran but
found violations, mirroring how the other codes distinguish "the tool
failed" from "the answer is no".
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

from repro.analysis.context import EvaluationContext
from repro.analysis.errors import model_error_summary
from repro.analysis import figures as figure_module
from repro.analysis.report import (
    ascii_table,
    render_alpha_sweep,
    render_comparison,
    render_figure6,
    render_figure8,
    render_power_sweep,
    render_scalability,
    render_table7,
)
from repro.analysis.tables import table7_classification
from repro.api import (
    POLICY_NAMES,
    DecisionRequest,
    LintRequest,
    PlannerService,
    SimulationRequest,
    StatesRequest,
)
from repro.api.requests import SYNTHETIC_TRACE_DEFAULTS
from repro.errors import ConfigurationError, ModelCacheError, OptimizationError, ReproError
from repro.gpu.spec import GPU_SPECS
from repro.profiling import HotspotProfiler
from repro.sim.engine import PerformanceSimulator
from repro.sim.sweep import scalability_power_sweep, scalability_sweep
from repro.workloads.classification import EXPECTED_CLASSIFICATION
from repro.workloads.mixes import JOB_MIXES
from repro.workloads.suite import DEFAULT_SUITE

# ----------------------------------------------------------------------
# Exit codes: one stable code per failure family, mapped in one place.
# ----------------------------------------------------------------------
#: ``lint`` ran successfully but found rule violations.
EXIT_LINT_FINDINGS = 1
#: Configuration / input problems (bad spec, unknown kernel, bad trace, ...).
EXIT_CONFIG = 2
#: The optimization problem has no feasible candidate (e.g. alpha too strict).
EXIT_INFEASIBLE = 3
#: A persisted model cache cannot serve the request (stale schema/spec/grid).
EXIT_MODEL_CACHE = 4

#: Most-specific-first mapping from :class:`ReproError` families to exit
#: codes; the first matching row wins, and anything else falls back to
#: :data:`EXIT_CONFIG`.
EXIT_CODE_MAP: tuple[tuple[type[ReproError], int], ...] = (
    (ModelCacheError, EXIT_MODEL_CACHE),
    (OptimizationError, EXIT_INFEASIBLE),
    (ReproError, EXIT_CONFIG),
)


def exit_code_for(exc: ReproError) -> int:
    """The stable CLI exit code of a library error."""
    for exc_type, code in EXIT_CODE_MAP:
        if isinstance(exc, exc_type):
            return code
    return EXIT_CONFIG  # pragma: no cover - ReproError row matches everything


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="MIG partitioning + power capping co-optimization (ICPP Workshops 2022 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list-benchmarks", help="list the benchmark suite")

    subparsers.add_parser("classify", help="run the Table 7 classification")

    scalability = subparsers.add_parser("scalability", help="scalability curves of one benchmark")
    scalability.add_argument("kernel", help="benchmark name (e.g. stream, hgemm)")
    scalability.add_argument("--power-cap", type=float, default=250.0, help="chip power cap in watts")
    scalability.add_argument(
        "--sweep-power",
        action="store_true",
        help="sweep the power cap (Figure 5 style) instead of the memory option",
    )

    decide = subparsers.add_parser(
        "decide", help="best partition/power for a co-location group of applications"
    )
    decide.add_argument(
        "apps",
        nargs="+",
        metavar="APP",
        help="application names in allocation order (two reproduce the paper's pairs; "
        "more enable N-way co-location)",
    )
    decide.add_argument("--policy", choices=POLICY_NAMES, default="problem1")
    decide.add_argument(
        "--power-cap", type=float, default=None,
        help="Problem 1's fixed power cap (default: spec grid's 92%% point); "
        "problem2 chooses the cap and rejects this option",
    )
    decide.add_argument("--alpha", type=float, default=0.2, help="fairness threshold")
    decide.add_argument(
        "--spec",
        choices=sorted(GPU_SPECS),
        default="a100",
        help="hardware specification to simulate and optimize for",
    )
    decide.add_argument(
        "--model",
        default=None,
        metavar="PATH",
        help="model cache path: load trained coefficients from PATH if it "
        "exists, otherwise train once and save them there",
    )
    decide.add_argument(
        "--json",
        action="store_true",
        help="emit the decision as machine-readable JSON instead of text",
    )

    simulate = subparsers.add_parser(
        "simulate",
        help="replay a job trace through the event-driven cluster simulator",
    )
    simulate.add_argument(
        "--trace", default=None, metavar="PATH",
        help="trace file (.csv or .json); omit to generate a synthetic trace",
    )
    simulate.add_argument(
        "--arrival-rate", type=float, default=None,
        help="synthetic arrival rate in jobs/s (default "
        f"{SYNTHETIC_TRACE_DEFAULTS['arrival_rate_per_s']:g}; rejected with --trace)",
    )
    simulate.add_argument(
        "--duration", type=float, default=None,
        help="synthetic arrival window in seconds (default "
        f"{SYNTHETIC_TRACE_DEFAULTS['duration_s']:g}; rejected with --trace)",
    )
    simulate.add_argument(
        "--jobs", type=int, default=None,
        help="cap the synthetic trace at this many jobs (rejected with --trace)",
    )
    simulate.add_argument(
        "--burst-size", type=float, default=None, metavar="MEAN",
        help="generate bursty arrivals with this mean burst size instead of "
        "a plain Poisson process (burst rate = arrival rate / MEAN; "
        "rejected with --trace)",
    )
    simulate.add_argument(
        "--mix", choices=sorted(JOB_MIXES), default=None,
        help="job mix the synthetic trace samples applications from "
        f"(default {SYNTHETIC_TRACE_DEFAULTS['mix']}; rejected with --trace)",
    )
    simulate.add_argument(
        "--seed", type=int, default=None,
        help="synthetic trace generator seed (default "
        f"{SYNTHETIC_TRACE_DEFAULTS['seed']}; rejected with --trace)",
    )
    simulate.add_argument("--nodes", type=int, default=2, help="number of compute nodes")
    simulate.add_argument("--policy", choices=POLICY_NAMES, default="problem2")
    simulate.add_argument(
        "--power-cap", type=float, default=None,
        help="Problem 1's fixed power cap (default: spec grid's 92%% point); "
        "problem2 chooses the cap and rejects this option",
    )
    simulate.add_argument("--alpha", type=float, default=0.2, help="fairness threshold")
    simulate.add_argument(
        "--window", type=int, default=4, help="co-scheduler look-ahead window"
    )
    simulate.add_argument(
        "--group-size", type=int, default=2,
        help="maximum jobs co-located per GPU (>2 enables N-way groups)",
    )
    simulate.add_argument(
        "--repartition-latency", type=float, default=0.0, metavar="S",
        help="latency per GPU Instance created/destroyed when a node's MIG "
        "layout changes, in seconds (re-binding jobs onto an unchanged GI "
        "multiset is free)",
    )
    simulate.add_argument(
        "--power-budget", type=float, default=None, metavar="W",
        help="cluster-wide GPU power budget re-distributed on load changes",
    )
    simulate.add_argument(
        "--spec",
        choices=sorted(GPU_SPECS),
        default="a100",
        help="hardware specification to simulate and optimize for",
    )
    simulate.add_argument(
        "--model",
        default=None,
        metavar="PATH",
        help="model cache path: load trained coefficients from PATH if it "
        "exists, otherwise train once and save them there",
    )
    simulate.add_argument(
        "--save-trace", default=None, metavar="PATH",
        help="also write the (synthetic) trace to PATH (.csv or .json)",
    )
    simulate.add_argument(
        "--json",
        action="store_true",
        help="emit the simulation report as machine-readable JSON instead of text",
    )
    simulate.add_argument(
        "--profile",
        type=int,
        nargs="?",
        const=15,
        default=None,
        metavar="N",
        help="profile the simulation with cProfile and append the top N "
        "call sites by cumulative time (default 15); the model is trained "
        "before profiling starts so the report shows the event loop, not "
        "one-time training",
    )

    states = subparsers.add_parser(
        "states", help="enumerate the realizable N-application partition states"
    )
    states.add_argument("n_apps", type=int, help="number of co-located applications")
    states.add_argument(
        "--spec",
        choices=sorted(GPU_SPECS),
        default="a100",
        help="hardware specification to enumerate for",
    )
    states.add_argument(
        "--json",
        action="store_true",
        help="emit the state list as machine-readable JSON instead of text",
    )

    lint = subparsers.add_parser(
        "lint",
        help="run the AST-based invariant analyzer (determinism and "
        "cache-coherence rules)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files and directories to analyze (default: src)",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings too, not only on errors (the mode CI runs)",
    )
    lint.add_argument(
        "--select",
        default=None,
        metavar="RLxxx[,RLxxx...]",
        help="comma-separated subset of rule ids to run (default: all)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry with rationales and exit",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit the lint report as machine-readable JSON instead of text",
    )

    subparsers.add_parser("accuracy", help="average model error across the evaluation grid")

    figure = subparsers.add_parser("figure", help="regenerate the data behind one paper figure")
    figure.add_argument("number", type=int, choices=(4, 5, 6, 8, 9, 10, 11, 12, 13))

    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def _emit_json(result, out: Callable[[str], None]) -> int:
    """Render a response dataclass as indented JSON."""
    out(json.dumps(result.to_dict(), indent=2))
    return 0


def _cmd_list_benchmarks(
    _: argparse.Namespace, out: Callable[[str], None], __: PlannerService
) -> int:
    rows = []
    for name in DEFAULT_SUITE.names():
        kernel = DEFAULT_SUITE.get(name)
        expected = EXPECTED_CLASSIFICATION.get(name)
        rows.append(
            (
                name,
                expected.value if expected else "-",
                f"{kernel.compute_time_full_s:.3f}",
                f"{kernel.memory_time_full_s:.3f}",
                f"{kernel.serial_time_s:.3f}",
                "yes" if kernel.uses_tensor_cores else "no",
            )
        )
    out(ascii_table(["benchmark", "class", "compute[s]", "memory[s]", "serial[s]", "tensor"], rows))
    return 0


def _cmd_classify(
    _: argparse.Namespace, out: Callable[[str], None], __: PlannerService
) -> int:
    context = EvaluationContext.create()
    data = table7_classification(context)
    out(render_table7(data))
    out(f"\nagreement with the paper's Table 7: {data.accuracy:.0%}")
    return 0


def _cmd_scalability(
    args: argparse.Namespace, out: Callable[[str], None], _: PlannerService
) -> int:
    kernel = DEFAULT_SUITE.get(args.kernel)
    simulator = PerformanceSimulator()
    if args.sweep_power:
        points = scalability_power_sweep(simulator, kernel)
        rows = [
            (f"{p.power_cap_w:.0f}W", p.gpcs, f"{p.relative_performance:.3f}", p.bound)
            for p in points
        ]
        out(ascii_table(["power cap", "GPCs", "RPerf", "bound"], rows))
    else:
        points = scalability_sweep(simulator, kernel, power_cap_w=args.power_cap)
        rows = [
            (p.option.value, p.gpcs, f"{p.relative_performance:.3f}", p.bound) for p in points
        ]
        out(ascii_table(["option", "GPCs", "RPerf", "bound"], rows))
    return 0


def _cmd_decide(
    args: argparse.Namespace, out: Callable[[str], None], service: PlannerService
) -> int:
    request = DecisionRequest(
        apps=tuple(args.apps),
        policy=args.policy,
        power_cap_w=args.power_cap,
        alpha=args.alpha,
        spec=args.spec,
        model_path=args.model,
    )
    result = service.decide(request)
    if args.json:
        return _emit_json(result, out)
    out(result.describe())
    out("")
    rows = [
        (
            e.state.label or e.state.describe(),
            f"{e.power_cap_w:.0f}",
            f"{e.predicted_throughput:.3f}",
            f"{e.predicted_fairness:.3f}",
            f"{e.objective:.5f}",
            "yes" if e.feasible else "no",
        )
        for e in result.evaluations
    ]
    out(ascii_table(["state", "P[W]", "throughput", "fairness", "objective", "feasible"], rows))
    return 0


def _cmd_simulate(
    args: argparse.Namespace, out: Callable[[str], None], service: PlannerService
) -> int:
    request = SimulationRequest(
        trace_path=args.trace,
        arrival_rate_per_s=args.arrival_rate,
        duration_s=args.duration,
        n_jobs=args.jobs,
        burst_size=args.burst_size,
        mix=args.mix,
        seed=args.seed,
        n_nodes=args.nodes,
        policy=args.policy,
        power_cap_w=args.power_cap,
        alpha=args.alpha,
        window_size=args.window,
        group_size=args.group_size,
        repartition_latency_s=args.repartition_latency,
        power_budget_w=args.power_budget,
        spec=args.spec,
        model_path=args.model,
        save_trace_path=args.save_trace,
    )
    if args.profile is not None:
        if args.json:
            raise ConfigurationError("--profile cannot be combined with --json")
        # Warm the session up front so the profile shows the event loop,
        # not the one-time offline training of the performance model.
        service.session_for(args.spec, args.group_size, args.model)
        profiler = HotspotProfiler()
        with profiler:
            result = service.simulate(request)
        out(result.trace_summary)
        out("")
        out(result.report_summary)
        out("")
        out(f"top {args.profile} call sites by cumulative time:")
        out(profiler.report(top=args.profile))
        return 0
    result = service.simulate(request)
    if args.json:
        return _emit_json(result, out)
    out(result.trace_summary)
    out("")
    out(result.report_summary)
    return 0


def _cmd_states(
    args: argparse.Namespace, out: Callable[[str], None], service: PlannerService
) -> int:
    result = service.states(StatesRequest(n_apps=args.n_apps, spec=args.spec))
    if args.json:
        return _emit_json(result, out)
    rows = [
        (
            row.state,
            row.option,
            row.total_gpcs,
            "-".join(str(slices) for slices in row.mem_slices_per_app),
        )
        for row in result.states
    ]
    out(ascii_table(["state", "option", "GPCs", "mem slices/app"], rows))
    out(
        f"\n{result.n_states} realizable state(s) for {result.n_apps} "
        f"application(s) on {result.spec_description}"
    )
    return 0


def _cmd_lint(
    args: argparse.Namespace, out: Callable[[str], None], service: PlannerService
) -> int:
    if args.list_rules:
        from repro.lint.report import render_rules

        out(render_rules())
        return 0
    select = (
        tuple(part.strip() for part in args.select.split(",") if part.strip())
        if args.select is not None
        else None
    )
    request = LintRequest(
        paths=tuple(args.paths), strict=args.strict, select=select
    )
    result = service.lint(request)
    if args.json:
        _emit_json(result, out)
    else:
        out(result.describe())
    return 0 if result.clean else EXIT_LINT_FINDINGS


def _cmd_accuracy(
    _: argparse.Namespace, out: Callable[[str], None], __: PlannerService
) -> int:
    context = EvaluationContext.create()
    summary = model_error_summary(context)
    out(
        f"average model error over {summary.n_samples} samples: "
        f"throughput {summary.throughput_mape_pct:.1f}% (paper ~9.7%), "
        f"fairness {summary.fairness_mape_pct:.1f}% (paper ~14.5%)"
    )
    return 0


def _cmd_figure(
    args: argparse.Namespace, out: Callable[[str], None], _: PlannerService
) -> int:
    context = EvaluationContext.create()
    number = args.number
    if number == 4:
        out(render_scalability(figure_module.figure4_scalability_partitioning(context), "Figure 4"))
    elif number == 5:
        out(render_scalability(figure_module.figure5_scalability_power(context), "Figure 5"))
    elif number == 6:
        out(render_figure6(figure_module.figure6_corun_throughput(context)))
    elif number == 8:
        out(render_figure8(figure_module.figure8_model_accuracy(context)))
    elif number == 9:
        data = figure_module.figure9_problem1(context)
        out(render_comparison(data.comparison, "throughput"))
    elif number == 10:
        out(render_power_sweep(figure_module.figure10_problem1_power_sweep(context)))
    elif number == 11:
        data = figure_module.figure11_problem2_efficiency(context)
        for alpha, summary in sorted(data.per_alpha.items()):
            out(f"alpha = {alpha}")
            out(render_comparison(summary, "throughput/W"))
    elif number == 12:
        data = figure_module.figure12_problem2_power_selection(context)
        for alpha, rows in sorted(data.per_alpha.items()):
            out(f"alpha = {alpha}")
            out(
                ascii_table(
                    ["workload", "worst P[W]", "proposal P[W]", "best P[W]"],
                    [
                        (r.pair, f"{r.worst_power_w:.0f}", f"{r.proposal_power_w:.0f}", f"{r.best_power_w:.0f}")
                        for r in rows
                    ],
                )
            )
    elif number == 13:
        out(render_alpha_sweep(figure_module.figure13_efficiency_vs_alpha(context)))
    return 0


_COMMANDS = {
    "list-benchmarks": _cmd_list_benchmarks,
    "classify": _cmd_classify,
    "scalability": _cmd_scalability,
    "decide": _cmd_decide,
    "simulate": _cmd_simulate,
    "states": _cmd_states,
    "lint": _cmd_lint,
    "accuracy": _cmd_accuracy,
    "figure": _cmd_figure,
}


def main(
    argv: Sequence[str] | None = None,
    out: Callable[[str], None] = print,
    service: PlannerService | None = None,
) -> int:
    """CLI entry point; returns the process exit status.

    ``service`` lets a long-lived embedding (tests, a REPL, a daemon) share
    one :class:`PlannerService` — and with it the trained-session cache —
    across invocations; by default each invocation gets a fresh one.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    if service is None:
        service = PlannerService()
    try:
        return handler(args, out, service)
    except ReproError as exc:
        out(f"error: {exc}")
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
