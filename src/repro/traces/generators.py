"""Synthetic trace generators: Poisson and bursty arrival processes.

Both generators are deterministic for a given seed (they own a private
:class:`random.Random`) and sample application names from a weighted
:class:`~repro.workloads.mixes.JobMix`, so a trace used in a test or a
benchmark can be regenerated bit-for-bit from its parameters.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from repro.errors import TraceError
from repro.traces.trace import Trace, TraceEntry
from repro.workloads.mixes import JobMix, STEADY_MIX


def _sampler(
    rng: random.Random, mix: JobMix | None, apps: Sequence[str] | None
):
    """An app-name sampler from either an explicit list or a weighted mix."""
    if apps is not None:
        if not apps:
            raise TraceError("the application list must not be empty")
        pool = list(apps)
        return lambda: rng.choice(pool)
    mix = mix if mix is not None else STEADY_MIX
    names = list(mix.app_names)
    weights = [mix.weights[name] for name in names]
    return lambda: rng.choices(names, weights=weights, k=1)[0]


def _check_bounded(duration_s: float, n_jobs: int | None) -> None:
    """A non-finite window (inf, or NaN, which no arrival time exceeds)
    never ends the generator loop, so only ``n_jobs`` can bound it."""
    if not math.isfinite(duration_s) and n_jobs is None:
        raise TraceError(
            f"duration_s must be finite unless n_jobs bounds the trace, got {duration_s}"
        )


def poisson_trace(
    arrival_rate_per_s: float,
    duration_s: float | None = None,
    n_jobs: int | None = None,
    seed: int = 2022,
    mix: JobMix | None = None,
    apps: Sequence[str] | None = None,
    label: str | None = None,
) -> Trace:
    """A Poisson arrival process: exponential inter-arrival times.

    Exactly one of ``duration_s`` (generate arrivals until the window ends)
    and ``n_jobs`` (generate a fixed number of arrivals) bounds the trace;
    supplying both caps the trace at whichever limit is hit first.
    """
    if arrival_rate_per_s <= 0:
        raise TraceError(
            f"the arrival rate must be positive, got {arrival_rate_per_s}"
        )
    if duration_s is None and n_jobs is None:
        raise TraceError("poisson_trace needs duration_s and/or n_jobs")
    if duration_s is not None and duration_s <= 0:
        raise TraceError(f"duration_s must be positive, got {duration_s}")
    if duration_s is not None:
        _check_bounded(duration_s, n_jobs)
    if n_jobs is not None and n_jobs < 1:
        raise TraceError(f"n_jobs must be >= 1, got {n_jobs}")
    rng = random.Random(seed)
    sample_app = _sampler(rng, mix, apps)
    entries: list[TraceEntry] = []
    time = 0.0
    while True:
        time += rng.expovariate(arrival_rate_per_s)
        if duration_s is not None and time > duration_s:
            break
        entries.append(TraceEntry(arrival_time_s=time, app=sample_app()))
        if n_jobs is not None and len(entries) >= n_jobs:
            break
    if not entries:
        raise TraceError(
            f"no arrivals generated (rate={arrival_rate_per_s}/s, "
            f"duration={duration_s}s); increase the rate or the window"
        )
    if label is None:
        label = f"poisson(rate={arrival_rate_per_s:g}/s, seed={seed})"
    return Trace(entries=tuple(entries), label=label)


def bursty_trace(
    burst_rate_per_s: float,
    mean_burst_size: float,
    duration_s: float,
    n_jobs: int | None = None,
    seed: int = 2022,
    mix: JobMix | None = None,
    apps: Sequence[str] | None = None,
    intra_burst_spacing_s: float = 0.0,
    label: str | None = None,
) -> Trace:
    """Bursts of simultaneous (or tightly spaced) arrivals.

    Burst *starts* follow a Poisson process at ``burst_rate_per_s``; each
    burst carries a geometrically distributed number of jobs with mean
    ``mean_burst_size``.  ``n_jobs`` additionally caps the trace at that
    many arrivals (the last burst may be cut short).  This is the arrival
    shape that exercises the power-rebalance path: a burst fills several
    nodes at once, so the cluster budget has to be re-split in one step.
    """
    if burst_rate_per_s <= 0:
        raise TraceError(f"the burst rate must be positive, got {burst_rate_per_s}")
    if mean_burst_size < 1:
        raise TraceError(f"mean_burst_size must be >= 1, got {mean_burst_size}")
    if duration_s <= 0:
        raise TraceError(f"duration_s must be positive, got {duration_s}")
    _check_bounded(duration_s, n_jobs)
    if n_jobs is not None and n_jobs < 1:
        raise TraceError(f"n_jobs must be >= 1, got {n_jobs}")
    if intra_burst_spacing_s < 0:
        raise TraceError(
            f"intra_burst_spacing_s must be >= 0, got {intra_burst_spacing_s}"
        )
    rng = random.Random(seed)
    sample_app = _sampler(rng, mix, apps)
    # Geometric on {1, 2, ...} with mean m has success probability 1/m.
    p_stop = 1.0 / mean_burst_size
    entries: list[TraceEntry] = []
    time = 0.0
    while n_jobs is None or len(entries) < n_jobs:
        time += rng.expovariate(burst_rate_per_s)
        if time > duration_s:
            break
        size = 1
        while rng.random() > p_stop:
            size += 1
        for index in range(size):
            entries.append(
                TraceEntry(
                    arrival_time_s=time + index * intra_burst_spacing_s,
                    app=sample_app(),
                )
            )
            if n_jobs is not None and len(entries) >= n_jobs:
                break
    if not entries:
        raise TraceError(
            f"no bursts generated (rate={burst_rate_per_s}/s, "
            f"duration={duration_s}s); increase the rate or the window"
        )
    if label is None:
        label = (
            f"bursty(rate={burst_rate_per_s:g}/s, "
            f"size~{mean_burst_size:g}, seed={seed})"
        )
    return Trace(entries=tuple(entries), label=label)
