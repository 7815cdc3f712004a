"""Job traces: timestamped application arrivals for the event simulator.

A trace is deliberately minimal — ``(arrival time, application name)`` per
job — so it serializes to a two-column CSV or a small JSON document and maps
onto real scheduler logs.  Application names are resolved against a
:class:`~repro.workloads.suite.BenchmarkSuite` only when the trace is
replayed, which keeps traces portable across hardware specs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import TraceError
from repro.workloads.kernel import KernelCharacteristics
from repro.workloads.suite import BenchmarkSuite, DEFAULT_SUITE


@dataclass(frozen=True)
class TraceEntry:
    """One job arrival: which application arrives, and when."""

    arrival_time_s: float
    app: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival_time_s) or self.arrival_time_s < 0:
            raise TraceError(
                f"arrival time must be finite and >= 0, got {self.arrival_time_s}"
            )
        if not self.app:
            raise TraceError("trace entries need a non-empty application name")
        object.__setattr__(self, "arrival_time_s", float(self.arrival_time_s))


@dataclass(frozen=True)
class Trace:
    """An arrival-time-ordered sequence of job arrivals.

    Entries are sorted on construction (stable, so simultaneous arrivals
    keep their submission order); the raw input order is not preserved.
    """

    entries: tuple[TraceEntry, ...]
    label: str = "trace"

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.entries, key=lambda entry: entry.arrival_time_s)
        )
        object.__setattr__(self, "entries", ordered)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    @property
    def n_jobs(self) -> int:
        """Number of job arrivals in the trace."""
        return len(self.entries)

    @property
    def duration_s(self) -> float:
        """Time of the last arrival (0 for an empty trace)."""
        return self.entries[-1].arrival_time_s if self.entries else 0.0

    @property
    def app_names(self) -> tuple[str, ...]:
        """Distinct application names appearing in the trace (sorted)."""
        return tuple(sorted({entry.app for entry in self.entries}))

    # ------------------------------------------------------------------
    @classmethod
    def from_arrivals(
        cls,
        arrivals: Iterable[tuple[float, str]],
        label: str = "trace",
    ) -> "Trace":
        """Build a trace from ``(arrival_time_s, app_name)`` tuples."""
        entries = tuple(TraceEntry(time, app) for time, app in arrivals)
        return cls(entries=entries, label=label)

    @classmethod
    def all_at_zero(cls, apps: Sequence[str], label: str = "batch") -> "Trace":
        """The batch trace: every job arrives at ``t=0``, in ``apps`` order.

        Replaying it through :meth:`repro.cluster.events.ClusterSimulator.run`
        drains the batch, and under ``SchedulerConfig(group_size=1)`` it
        gives the exclusive FIFO baseline.
        """
        return cls.from_arrivals(((0.0, app) for app in apps), label=label)

    # ------------------------------------------------------------------
    def resolve_kernels(
        self, suite: BenchmarkSuite | None = None
    ) -> tuple[KernelCharacteristics, ...]:
        """The kernel of every entry, in arrival order.

        Raises
        ------
        repro.errors.TraceError
            If an application name is not in ``suite`` (the error lists the
            offending name so operators can fix the trace file).
        """
        suite = suite if suite is not None else DEFAULT_SUITE
        kernels = []
        for entry in self.entries:
            if entry.app not in suite:
                raise TraceError(
                    f"trace {self.label!r} references unknown application "
                    f"{entry.app!r}; known: {suite.names()}"
                )
            kernels.append(suite.get(entry.app))
        return tuple(kernels)

    def summary(self) -> str:
        """One-line human-readable summary."""
        if not self.entries:
            return f"[{self.label}] empty trace"
        rate = self.n_jobs / self.duration_s if self.duration_s > 0 else float("inf")
        rate_text = f"{rate:.2f} jobs/s" if math.isfinite(rate) else "all at t=0"
        return (
            f"[{self.label}] {self.n_jobs} jobs over {self.duration_s:.1f}s "
            f"({rate_text}, {len(self.app_names)} distinct apps)"
        )
