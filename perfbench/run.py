"""Run one workload of the planner benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay-steady --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` wraps each layer's entry points, does a fixed amount of
work and reports the per-layer metrics.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero when any output check failed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import sys
from pathlib import Path

# One BLAS thread per process, whatever the caller's environment says; must
# be set before NumPy is imported.  Child processes inherit it.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Used by the harness for its fresh child processes.
    parser.add_argument("--probe", choices=("setup", "fixed"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def traced_metrics(workload, seed: int):
    """Per-layer metrics of one traced run, plus its tally and notes."""
    tally = harness.Tally()
    fixed = workload.run_fixed(seed, tally, traced=True)
    import layers  # only now: it imports NumPy, which the timed import must pay for

    untraced = harness.probe(workload, seed, "fixed")["wall_s"]
    table = fixed.recorder.table()
    out = fixed.recorder.write(BENCH_DIR / "out" / f"spans-{workload.name}-{seed}.json")
    metrics = layers.per_layer_metrics(
        table,
        wall_s=fixed.wall_s,
        warm_window=fixed.warm_window,
        warm_ops=fixed.warm_ops,
        plan_cache_hits=sum(fixed.recorder.observations["ClusterSimulator.run"]),
    )
    metrics["trace.overhead_pct"] = 100.0 * (fixed.wall_s - untraced) / untraced
    notes = [
        f"{len(table.name)} spans written to {out.name}",
        f"traced wall {fixed.wall_s:.3f} s, untraced {untraced:.3f} s, "
        f"warm ops {fixed.warm_ops}",
    ]
    return metrics, tally, notes


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    workload = harness.WORKLOADS[args.workload]
    if args.probe == "setup":
        print(json.dumps(workload.probe_setup(args.seed)))
        return 0
    if args.probe == "fixed":
        fixed = workload.run_fixed(args.seed, harness.Tally(), traced=False)
        print(json.dumps({"wall_s": fixed.wall_s}))
        return 0

    # Byte-compile the sources up front so no timed import pays for it.
    compileall.compile_dir(str(SRC), quiet=1)
    if args.trace:
        metrics, tally, notes = traced_metrics(workload, args.seed)
        import layers

        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        probes = [
            harness.probe(workload, args.seed, "setup")
            for _ in range(workload.SETUP_SAMPLES - 1)
        ]
        metrics, tally, notes = workload.measure(args.seed, args.seconds, probes)
        units = {name: unit for name, unit, _ in harness.END_TO_END}

    for note in notes:
        print(f"# {note}")
    for problem in tally.problems[:20]:
        print(f"# FAILED CHECK: {problem}")
    error_rate = tally.failed / max(tally.attempted, 1)
    print(f"# error_rate = {error_rate:.6f} ({tally.failed} of {tally.attempted})")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
