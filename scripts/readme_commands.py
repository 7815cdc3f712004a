#!/usr/bin/env python3
"""Run every ``repro`` command of README.md's fenced bash blocks, in order.

Continuation lines are joined first.  Each command runs through ``bash``
from the repository root, with ``HOME`` pointed at one fresh temporary
directory (so ``~/.cache/...`` paths stay out of the real home) and under
a per-command timeout.  Lines that are not ``repro`` commands — ``pip``,
``pytest`` and the ``perfbench`` runs — are skipped.  Needs the ``repro``
console entry point on ``PATH`` (``pip install -e .``).

Usage::

    python scripts/readme_commands.py

Exits 1 if any command exits non-zero or times out.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Per-command limit; every README command finishes in a few seconds.
TIMEOUT_S = 120.0


def readme_commands(text: str) -> list[str]:
    """The ``repro`` commands of every fenced bash block, in order."""
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", text, re.S):
        joined = re.sub(r"\\\n\s*", "", block)
        commands.extend(
            line.strip()
            for line in joined.splitlines()
            if line.strip().split(" ", 1)[0] == "repro"
        )
    return commands


def main() -> int:
    commands = readme_commands((ROOT / "README.md").read_text())
    failures = 0
    with tempfile.TemporaryDirectory() as home:
        env = dict(os.environ, HOME=home)
        for command in commands:
            started = time.perf_counter()
            try:
                status = subprocess.run(
                    ["bash", "-c", command],
                    cwd=ROOT,
                    env=env,
                    stdout=subprocess.DEVNULL,
                    timeout=TIMEOUT_S,
                ).returncode
            except subprocess.TimeoutExpired:
                status = "timeout"
            elapsed = time.perf_counter() - started
            print(f"[{status}] {elapsed:6.2f}s  {command}", flush=True)
            failures += status != 0
    print(f"{len(commands) - failures}/{len(commands)} README commands passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
