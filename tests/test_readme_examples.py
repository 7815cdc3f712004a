"""The README's complete Python examples run as written.

Each test executes one fenced ``python`` block of ``README.md`` verbatim,
so an import or signature drift in the docs fails the tier-1 suite.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(marker: str) -> str:
    """The one fenced ``python`` block of the README containing ``marker``."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    matching = [block for block in blocks if marker in block]
    assert len(matching) == 1, f"expected one README python block with {marker!r}"
    return matching[0]


def _run(source: str, name: str) -> dict:
    namespace: dict = {"__name__": name}
    exec(compile(source, f"README.md:{name}", "exec"), namespace)
    return namespace


def test_service_layer_example_runs(tmp_path, monkeypatch):
    # The example persists models under ~/.cache; keep that in tmp_path.
    monkeypatch.setenv("HOME", str(tmp_path))
    namespace = _run(_readme_block("PlannerService("), "service_layer")
    assert namespace["result"].describe()
    assert len(namespace["batch"]) == 3
    assert any((tmp_path / ".cache" / "repro-models").iterdir())


def test_engine_layer_example_runs():
    namespace = _run(_readme_block("PaperWorkflow("), "engine_layer")
    decision = namespace["decision"]
    assert decision.state.n_apps == 4
    assert decision.power_cap_w in namespace["caps"]


def test_readme_bash_commands_are_joined_and_filtered():
    # CI runs these commands (scripts/readme_commands.py); pin what it picks.
    path = README.parent / "scripts" / "readme_commands.py"
    spec = importlib.util.spec_from_file_location("readme_commands", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    text = (
        "```bash\npip install -e .\nrepro states 2\n"
        "repro simulate --nodes 2 \\\n    --json  # joined\n"
        "python -m pytest -q\n# repro in a comment\n```\n"
        "```python\nrepro = 1\n```\n"
    )
    assert module.readme_commands(text) == [
        "repro states 2",
        "repro simulate --nodes 2 --json  # joined",
    ]
    commands = module.readme_commands(README.read_text())
    assert all("\\" not in command for command in commands)
    assert "repro lint --strict src tests   # the CI gate: warnings fail too" in commands
