"""Every entry point the planner benchmark wraps still resolves by name.

``perfbench`` times its layers by wrapping public functions under their
qualified names (``perfbench/layers.py``), and its replay check wraps
``SimulationResult.from_report``.  A renamed or removed entry point would
otherwise surface only when the benchmark runs.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
from spans import SpanRecorder, Target  # noqa: E402

#: The target of perfbench's untraced replay check.
FROM_REPORT = Target("repro.api.results", "SimulationResult.from_report", "from_report")


def _defined(target: Target) -> object:
    """The attribute ``target`` names, as its module or class defines it."""
    owner: object = importlib.import_module(target.module)
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def test_every_wrapped_entry_point_installs_and_uninstalls():
    targets = layers.targets() + [FROM_REPORT]
    originals = [_defined(target) for target in targets]
    recorder = SpanRecorder()
    try:
        recorder.install(targets)
        patched = list(recorder._patches)
        assert len(patched) >= len(targets)
        for target, original in zip(targets, originals):
            assert _defined(target) is not original, target.qualname
    finally:
        recorder.uninstall()
    # ``from_report`` is also an api-layer target, so it is wrapped twice;
    # the binding must be back to what it was before the first wrap.
    before: dict[tuple[object, str], object] = {}
    for owner, attr, original in patched:
        before.setdefault((owner, attr), original)
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, attr
    assert [_defined(target) for target in targets] == originals
