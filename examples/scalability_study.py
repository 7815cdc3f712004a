#!/usr/bin/env python3
"""Scalability observations (the paper's Section 3) on the simulated GPU.

Reproduces the two observation studies:

* Figure 4 — relative performance vs. GPC count for the private and shared
  LLC/HBM options at 250 W, for one benchmark of each class.
* Figure 5 — the same scalability curves while lowering the chip power cap
  from 250 W to 150 W (shared option).

Run with::

    python examples/scalability_study.py
"""

from __future__ import annotations

from repro import MemoryOption, solo_state
from repro.analysis import (
    EvaluationContext,
    figure4_scalability_partitioning,
    figure5_scalability_power,
)
from repro.analysis.report import render_scalability


def main() -> None:
    context = EvaluationContext.create()

    fig4 = figure4_scalability_partitioning(context)
    print(render_scalability(fig4, "Figure 4 — scalability per partitioning option (250 W)"))
    print()

    fig5 = figure5_scalability_power(context)
    print(render_scalability(fig5, "Figure 5 — scalability per power cap (shared option)"))
    print()

    # A couple of headline observations, matching the paper's narrative.
    kmeans = fig4.curve("kmeans", MemoryOption.PRIVATE)
    print("Observations:")
    print(
        "  kmeans (un-scalable) keeps ~{:.0%} of its performance even on 1 GPC".format(
            kmeans.value_at(1)
        )
    )
    hgemm_150 = fig5.curve("hgemm", 150).value_at(7)
    hgemm_250 = fig5.curve("hgemm", 250).value_at(7)
    print(
        "  hgemm (Tensor intensive) loses {:.0%} of its 7-GPC performance when the cap "
        "drops from 250 W to 150 W".format(1 - hgemm_150 / hgemm_250)
    )
    stream_solo = context.simulator.solo_run(
        context.suite.get("stream"), solo_state(3, "private"), 250
    )
    print(
        "  stream on 3 private GPCs reaches only {:.0%} of full-GPU performance "
        "(bandwidth limited by its memory slices)".format(stream_solo.relative_performance)
    )


if __name__ == "__main__":
    main()
