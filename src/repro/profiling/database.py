"""JSON-backed profile database.

This is the "Database" box of the paper's Figure 1: the job manager stores
one profile per application and consults it whenever the application shows
up in the queue again.  Applications without a profile must first run
exclusively (profile run) before they can be co-scheduled.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from repro.errors import MissingProfileError, ProfileError
from repro.profiling.records import ProfileRecord


class ProfileDatabase:
    """Append-only in-memory profile store with optional JSON persistence.

    A stored profile is never replaced or dropped, so everything derived
    from a name's counters (the allocator's decision memo, the scheduler's
    plan memo) stays valid for the life of the database.
    """

    def __init__(self) -> None:
        self._records: dict[str, ProfileRecord] = {}

    # ------------------------------------------------------------------
    # Mapping-ish interface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, name: object) -> bool:
        return name in self._records

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._records))

    def names(self) -> tuple[str, ...]:
        """All profiled application names, sorted."""
        return tuple(sorted(self._records))

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

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialize the whole database to a JSON-compatible dictionary."""
        return {
            "format": "repro-profile-database",
            "version": 1,
            "profiles": [self._records[name].to_dict() for name in self.names()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProfileDatabase":
        """Rebuild a database from :meth:`to_dict` output."""
        if data.get("format") != "repro-profile-database":
            raise ProfileError("not a profile-database document")
        database = cls()
        for entry in data.get("profiles", []):
            database.add(ProfileRecord.from_dict(entry))
        return database

    def save(self, path: str | Path) -> Path:
        """Write the database to a JSON file and return its path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ProfileDatabase":
        """Read a database previously written by :meth:`save`."""
        path = Path(path)
        if not path.exists():
            raise ProfileError(f"profile database file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ProfileError(f"profile database {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)
