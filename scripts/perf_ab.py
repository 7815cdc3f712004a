#!/usr/bin/env python3
"""A before/after pair of benchmark runs: a base revision against this tree.

Exports ``--base`` with ``git archive`` into a temporary directory (the
repository is only read) and, for each seed, runs the untraced
``perfbench/run.py`` of both sides in fresh processes, alternating which
side goes first from one seed to the next.  The last line a run prints is
its JSON result.  Writes ``BENCH_ab_<workload>.json`` at the repository
root with:

* per end-to-end metric of ``BENCHMARK.json``: each side's median and
  quartiles, the base's interquartile range, the change's median over the
  base's, whether that stays inside the metric's bound, the pairs (seeds)
  in which the change did better, and whether the metric is unresolved:
  the base's runs spread wider than the bound (IQR over median), so the
  pair cannot tell a change inside the bound from noise, unless every
  change run beats every base run;
* per seed, whether every simulated metric (``sim_*``) and
  ``rperf_error_pct`` is identical on both sides: they depend only on the
  program's decisions, never on host time;
* each side's failed operations.

Usage (from the repository root)::

    python3 scripts/perf_ab.py --base HEAD --workload decide-nway --seeds 1-11

A pair takes two full runs (~12-30 s each), so CI does not run this.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
#: A run gets this long before it is killed.
RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list[int]:
    """``"1-11"``, ``"1,4,9"`` or a mix of both, as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def last_json_line(stdout: str) -> dict[str, Any]:
    """The JSON object on the final non-empty line of a run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def export(rev: str, into: Path) -> None:
    """Write the committed files of ``rev`` under ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """One untraced benchmark run of the tree under ``root``, ``seconds`` of warm work."""
    command = [
        sys.executable, str(root / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    try:
        return last_json_line(done.stdout)
    except ValueError as exc:
        raise SystemExit(f"{root} seed {seed}: {exc}\n{done.stderr[-2000:]}") from exc


def _spread(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _identical(metrics_a: dict[str, Any], metrics_b: dict[str, Any]) -> bool:
    names = [n for n in metrics_a if n.startswith("sim_") or n == "rperf_error_pct"]
    # Compared as JSON text, so that NaN equals NaN.
    return all(
        json.dumps(metrics_a[n]["value"]) == json.dumps(metrics_b[n]["value"]) for n in names
    )


def summarize(
    pairs: list[tuple[int, dict[str, Any], dict[str, Any]]], end_to_end: list[dict[str, Any]]
) -> dict[str, Any]:
    """The A/B summary of ``(seed, base result, change result)`` triples.

    ``end_to_end`` is ``BENCHMARK.json``'s list of metrics, each with its
    ``name``, ``better`` direction and relative ``bound``.
    """
    metrics = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [b["metrics"][name]["value"] for _, b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, _, c in pairs]
        base_spread, change_spread = _spread(base), _spread(change)
        ratio = change_spread["median"] / base_spread["median"] if base_spread["median"] else 1.0
        iqr = base_spread["q3"] - base_spread["q1"]
        relative_iqr = iqr / abs(base_spread["median"]) if base_spread["median"] else (
            math.inf if iqr else 0.0
        )
        separated = max(change) < min(base) if lower else min(change) > max(base)
        metrics[name] = {
            "better": metric["better"],
            "base": base_spread,
            "change": change_spread,
            "base_iqr": iqr,
            "median_ratio": ratio,
            "within_bound": ratio <= 1 + metric["bound"] if lower else ratio >= 1 - metric["bound"],
            "unresolved": relative_iqr > metric["bound"] and not separated,
            "pairs_won": sum((c < b) if lower else (c > b) for b, c in zip(base, change)),
            "pairs": len(pairs),
        }
    return {
        "seeds": [seed for seed, _, _ in pairs],
        "metrics": metrics,
        "identical_per_seed": {
            str(seed): _identical(b["metrics"], c["metrics"]) for seed, b, c in pairs
        },
        "failed": {
            "base": sum(b["failed"] for _, b, _ in pairs),
            "change": sum(c["failed"] for _, _, c in pairs),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-11", help="e.g. 1-11 or 1,3,5")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = []
    with tempfile.TemporaryDirectory() as scratch:
        base_root = Path(scratch)
        export(args.base, base_root)
        for turn, seed in enumerate(parse_seeds(args.seeds)):
            sides = [base_root, ROOT] if turn % 2 == 0 else [ROOT, base_root]
            results = {
                side: run_once(side, args.workload, seed, benchmark["run_seconds"])
                for side in sides
            }
            pairs.append((seed, results[base_root], results[ROOT]))
            print(f"seed {seed} done", file=sys.stderr)
    summary = {
        "base": args.base,
        "workload": args.workload,
        **summarize(pairs, benchmark["end_to_end"]),
    }
    out = ROOT / f"BENCH_ab_{args.workload}.json"
    out.write_text(json.dumps(summary, indent=2) + "\n")
    for name, row in summary["metrics"].items():
        print(
            f"{name:24s} {row['base']['median']:12.6g} -> {row['change']['median']:12.6g}"
            f"  x{row['median_ratio']:.3f}  won {row['pairs_won']}/{row['pairs']}"
            + ("  unresolved" if row["unresolved"] else "")
        )
    print(f"identical sim_*/rperf_error_pct on every seed: {all(summary['identical_per_seed'].values())}")
    print(f"failed operations: {summary['failed']}; wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
