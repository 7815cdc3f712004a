"""Seeded input generators.

Every trace and request stream is generated from the workload name, the
seed and a stream label, before any clock starts; the program only
receives the result.  Seeds are derived through :class:`random.Random`
seeded with a string, which is deterministic across processes and Python
versions.  Traces come from the program's own generators
(:mod:`repro.traces.generators`), fed with :func:`seed_for`.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Iterable, Sequence


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    """An independent generator per (workload, seed, stream)."""
    return random.Random(f"{workload}/{seed}/{stream}")


def seed_for(workload: str, seed: int, stream: str) -> int:
    """An integer seed per (workload, seed, stream), for the trace generators."""
    return rng_for(workload, seed, stream).getrandbits(63)


def held_out_groups(
    apps: Iterable[str], size: int, trained: Iterable[Iterable[str]]
) -> list[tuple[str, ...]]:
    """Every ``size``-subset of ``apps`` (sorted) that no training group covers."""
    excluded = {frozenset(group) for group in trained}
    return [
        group
        for group in itertools.combinations(sorted(apps), size)
        if frozenset(group) not in excluded
    ]


def request_stream(
    rng: random.Random,
    groups: Sequence[tuple[str, ...]],
    policies: Sequence[tuple[str, float]],
    first_seen_share: float,
    n_requests: int,
) -> list[tuple[tuple[str, ...], str, bool]]:
    """A closed-loop request stream over held-out groups.

    ``policies`` lists ``(policy, share)``; each request draws its policy
    by share, then is first-seen with probability ``first_seen_share`` (the
    next unused group of a seeded shuffle, members in a seeded order) or
    otherwise repeats an earlier group of the same policy, the one of
    first-seen rank ``r`` with weight ``1/r``.  Returns
    ``(apps, policy, first_seen)`` triples.
    """
    names = [name for name, _ in policies]
    cumulative = list(itertools.accumulate(share for _, share in policies))
    fresh = {name: _shuffled_groups(rng, groups) for name in names}
    seen: dict[str, list[tuple[str, ...]]] = {name: [] for name in names}
    weights: dict[str, list[float]] = {name: [] for name in names}
    stream = []
    for _ in range(n_requests):
        policy = rng.choices(names, cum_weights=cumulative)[0]
        history, cum = seen[policy], weights[policy]
        first = not history or (
            rng.random() < first_seen_share and len(history) < len(groups)
        )
        if first:
            apps = fresh[policy][len(history)]
            history.append(apps)
            cum.append((cum[-1] if cum else 0.0) + 1.0 / len(history))
        else:
            apps = history[bisect.bisect_right(cum, rng.random() * cum[-1])]
        stream.append((apps, policy, first))
    return stream


def _shuffled_groups(
    rng: random.Random, groups: Sequence[tuple[str, ...]]
) -> list[tuple[str, ...]]:
    order = list(groups)
    rng.shuffle(order)
    return [tuple(rng.sample(group, len(group))) for group in order]
