"""Dict round-tripping shared by the API request/response dataclasses.

Every public request and response type serializes with ``to_dict()`` and
rebuilds with ``from_dict()``; the helpers here keep that contract uniform:
``to_dict`` is :func:`dataclasses.asdict` (nested dataclasses become nested
dicts, tuples survive JSON as lists) unless a response renders a nested
engine record itself, and ``from_dict`` rejects unknown keys loudly
instead of silently dropping a misspelled field.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Mapping, Type, TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")


def checked_kwargs(cls: Type[T], data: Mapping[str, Any]) -> dict[str, Any]:
    """``data`` as constructor kwargs for dataclass ``cls``.

    Raises :class:`~repro.errors.ConfigurationError` when ``data`` is not a
    mapping or carries keys ``cls`` does not declare, so a typo in a JSON
    document fails at the boundary instead of deserializing to defaults.
    """
    assert is_dataclass(cls)
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{cls.__name__}.from_dict needs a mapping, got {type(data).__name__}"
        )
    known = {field.name for field in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(
            f"{cls.__name__}: unknown field(s) {unknown}; known fields: {sorted(known)}"
        )
    return dict(data)


def build(cls: Type[T], data: Mapping[str, Any]) -> T:
    """Construct dataclass ``cls`` from ``data`` with unknown-key checking.

    Missing required fields surface as :class:`ConfigurationError` (the
    underlying ``TypeError`` names them).
    """
    kwargs = checked_kwargs(cls, data)
    try:
        return cls(**kwargs)  # type: ignore[return-value]
    except TypeError as exc:
        raise ConfigurationError(f"{cls.__name__}: {exc}") from None
