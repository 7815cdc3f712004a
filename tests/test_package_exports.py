"""Every name a ``repro`` package exports through ``__all__`` resolves.

A retired class left in an ``__all__`` list breaks ``from package import *``
only when someone runs it, so this walks every module under ``repro`` and
checks each exported name is an attribute of its module.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


def _modules() -> list[str]:
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix=f"{repro.__name__}."):
        names.append(info.name)
    return sorted(names)


def _exporting_modules() -> list[str]:
    return [
        name for name in _modules() if hasattr(importlib.import_module(name), "__all__")
    ]


def test_the_walk_reaches_every_package():
    assert {"repro", "repro.gpu", "repro.profiling", "repro.cluster.events"} <= set(
        _exporting_modules()
    )


@pytest.mark.parametrize("module_name", _exporting_modules())
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
