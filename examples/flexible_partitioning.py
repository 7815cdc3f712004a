#!/usr/bin/env python3
"""Flexible partitioning: what choosing from every partition state buys.

The paper's future-work direction: let the allocator choose from *every*
realizable two-application partition state instead of only the 4+3 split,
and measure what that freedom buys.

Run with::

    python examples/flexible_partitioning.py
"""

from __future__ import annotations

from repro.analysis.extensions import flexible_partitioning_study
from repro.sim.engine import PerformanceSimulator
from repro.sim.noise import no_noise
from repro.workloads.pairs import corun_pair


def flexible_partitioning_demo() -> None:
    pairs = [corun_pair(name) for name in ("TI-MI2", "CI-US1", "MI-MI2")]
    study = flexible_partitioning_study(
        simulator=PerformanceSimulator(noise=no_noise()), pairs=pairs
    )
    print(
        f"Flexible partitioning over {study.n_states} candidate states "
        f"(vs. the paper's 4):"
    )
    for row in study.rows:
        print(
            f"  {row.pair}: best(S1-S4)={row.best_paper_states:.3f}  "
            f"best(all)={row.best_flexible_states:.3f}  "
            f"proposal={row.proposal_flexible:.3f} ({row.proposal_state})"
        )
    print(
        f"  mean gain from extra flexibility: {study.mean_flexibility_gain:.3f}x, "
        f"allocator captures {study.mean_proposal_vs_best:.0%} of it\n"
    )


def main() -> None:
    flexible_partitioning_demo()


if __name__ == "__main__":
    main()
