"""Output checks.  Each function returns a list of problems; every problem
counts as one failed operation and makes the benchmark exit non-zero."""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence


def canonical(document: Mapping[str, Any]) -> bytes:
    """The byte form two results are compared in."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode()


def check_replay_jobs(
    arrivals: Sequence[tuple[float, str]], jobs: Sequence[Any]
) -> list[str]:
    """Every arrival of the trace completes exactly once.

    ``arrivals`` are the trace's ``(arrival time, app)`` pairs and ``jobs``
    the report's completed :class:`~repro.cluster.job.Job` records.
    """
    problems = []
    ids = [job.job_id for job in jobs]
    if len(set(ids)) != len(ids):
        problems.append(f"{len(ids) - len(set(ids))} job(s) completed more than once")
    unfinished = [
        job.job_id
        for job in jobs
        if job.finish_time is None or job.state.value != "completed"
    ]
    if unfinished:
        problems.append(f"{len(unfinished)} job(s) reported but not completed")
    completed = sorted((job.submit_time, job.name) for job in jobs)
    if completed != sorted(arrivals):
        problems.append(
            f"completed jobs ({len(jobs)}) do not match the trace's "
            f"{len(arrivals)} arrivals"
        )
    return problems


def check_same_result(first: bytes, again: bytes, what: str) -> list[str]:
    """A repeated operation on the hot session returns identical bytes."""
    if first == again:
        return []
    return [f"repeating {what} on the hot session changed its result"]


def check_decision(
    result: Any, apps: Sequence[str], alpha: float, valid_states: frozenset[str]
) -> list[str]:
    """A decision names a valid state for its group and meets the fairness bound.

    ``valid_states`` holds the descriptions of every partition state the
    spec realizes for ``len(apps)`` applications.
    """
    problems = []
    if tuple(result.apps) != tuple(apps):
        problems.append(f"decision answers {result.apps}, request was {tuple(apps)}")
    if result.state not in valid_states:
        problems.append(
            f"state {result.state!r} is not a valid {len(apps)}-application state"
        )
    if len(result.predicted_rperfs) != len(apps):
        problems.append(
            f"{len(result.predicted_rperfs)} predictions for {len(apps)} applications"
        )
    if not result.predicted_fairness > alpha:
        problems.append(
            f"predicted fairness {result.predicted_fairness} does not exceed "
            f"alpha={alpha}"
        )
    return problems
