"""Profile records: the stored outcome of one profile run."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProfileError
from repro.sim.counters import CounterVector


@dataclass(frozen=True)
class ProfileRecord:
    """Everything the job manager remembers about one application.

    Attributes
    ----------
    name:
        Application (benchmark) name — the database key.
    counters:
        The Table 3 counter vector collected during the profile run, the
        features the performance model reads.
    """

    name: str
    counters: CounterVector

    def __post_init__(self) -> None:
        if not self.name:
            raise ProfileError("profile record needs a non-empty application name")
