"""Unit tests for :func:`repro.units.clamp`."""

from __future__ import annotations

import pytest

from repro import units


def test_clamp_within_range():
    assert units.clamp(0.5, 0.0, 1.0) == 0.5


def test_clamp_below_range():
    assert units.clamp(-3.0, 0.0, 1.0) == 0.0


def test_clamp_above_range():
    assert units.clamp(7.0, 0.0, 1.0) == 1.0


def test_clamp_rejects_inverted_interval():
    with pytest.raises(ValueError):
        units.clamp(0.5, 1.0, 0.0)

