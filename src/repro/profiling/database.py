"""The in-memory profile database.

This is the "Database" box of the paper's Figure 1: the job manager stores
one profile per application and consults it whenever the application shows
up in the queue again.  Applications without a profile must first run
exclusively (profile run) before they can be co-scheduled.
"""

from __future__ import annotations

from repro.errors import MissingProfileError, ProfileError
from repro.profiling.records import ProfileRecord


class ProfileDatabase:
    """Append-only in-memory profile store.

    A stored profile is never replaced or dropped, so everything derived
    from a name's counters (the allocator's decision memo, the scheduler's
    plan memo) stays valid for the life of the database.
    """

    def __init__(self) -> None:
        self._records: dict[str, ProfileRecord] = {}

    def has(self, name: str) -> bool:
        """Whether a profile exists for ``name``."""
        return name in self._records

    def get(self, name: str) -> ProfileRecord:
        """The stored profile for ``name``.

        Raises
        ------
        repro.errors.MissingProfileError
            If the application has never been profiled — the paper's rule is
            that such an application must first run exclusively.
        """
        try:
            return self._records[name]
        except KeyError:
            raise MissingProfileError(
                f"no profile recorded for application {name!r}; "
                "it must be executed exclusively for a profile run first"
            ) from None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, record: ProfileRecord) -> None:
        """Store a profile record for a name that has none yet."""
        if record.name in self._records:
            raise ProfileError(f"profile for {record.name!r} already exists")
        self._records[record.name] = record
