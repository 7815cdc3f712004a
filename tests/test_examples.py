"""Smoke tests: every example script must run end to end.

The examples are part of the public deliverable; these tests import each one
as a module and execute its ``main()`` so that API drift breaks the build
instead of the documentation.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"

EXAMPLES = [
    "quickstart",
    "scalability_study",
    "power_capped_coscheduling",
    "cluster_job_manager",
    "flexible_partitioning",
    "nway_colocation",
    "trace_simulation",
    "api_quickstart",
]


def load_example(name: str):
    """Import an example script as a module."""
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_examples_directory_contains_all_documented_scripts():
    present = {path.stem for path in EXAMPLES_DIR.glob("*.py")}
    assert present == set(EXAMPLES)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs_to_completion(name, capsys):
    module = load_example(name)
    module.main()
    output = capsys.readouterr().out
    assert len(output.splitlines()) > 3


def test_quickstart_selects_a_near_optimal_state(capsys):
    module = load_example("quickstart")
    module.main()
    output = capsys.readouterr().out
    assert "selected state achieves" in output
    percentage = float(output.rsplit("achieves", 1)[1].split("%")[0])
    assert percentage >= 90.0
