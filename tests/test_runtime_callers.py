"""Every ``src/repro`` function, class and method has a caller outside ``tests/``.

A helper that only tests call is code the planner carries for nothing, and
it tends to come back one name at a time.  This walks every non-``__init__``
module under ``src/repro``, collects its module-level functions and classes
and the methods of those classes (dunders skipped), and checks that each
name appears somewhere a runtime path, benchmark, example or script lives:
``src/repro`` itself (``__init__`` re-exports excluded), ``benchmarks/``,
``perfbench/``, ``examples/`` and ``scripts/``.

A name *appears* as an ``ast.Name``, an attribute, an imported name or a
segment of a string constant that is a whole dotted name (perfbench wraps
its entry points by strings such as ``"PlannerService.simulate_trace"``).
Classes registered by a decorator (the lint rules) count as reached.  The
match is by name, so it can miss dead code whose name something else
shares; it never flags live code.  What no runtime path reaches but stays
on purpose is :data:`KEPT`.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
OUTSIDE = ("benchmarks", "perfbench", "examples", "scripts")
#: A whole string that is a dotted name, such as ``"PlannerService.simulate"``;
#: prose that merely mentions one (a docstring, a message) reaches nothing.
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")

#: Unreached on purpose, qualified by module under ``repro``: name -> reason.
KEPT = {
    "core.model.required_state_keys": (
        "the keys a training plan must fit; the model and workflow tests "
        "check fitted models against it"
    ),
    "core.training.ModelTrainer.fit_interference": (
        "public training stage; test_public_stages_match_train checks it "
        "against train"
    ),
    "core.training.ModelTrainer.fit_mixed": (
        "public training stage; test_public_stages_match_train checks it "
        "against train"
    ),
    "core.training.ModelTrainer.fit_composition": (
        "public training stage; test_public_stages_match_train checks it "
        "against train"
    ),
    "gpu.power.PowerModel.dvfs": "read by tests/solve_oracle.py",
    "sim.engine.PerformanceSimulator.power_model": "read by tests/solve_oracle.py",
    "core.features.BasisFunctions.j_matrix": "read by the reference trainer",
    "core.metrics.mean_absolute_percentage_error": (
        "the paper's Fig. 8 statistic, kept for the replay's planned "
        "predicted-against-executed audit (ROADMAP item 4)"
    ),
    "cluster.node.ComputeNode.current_partition": (
        "the only reader of what the perfbench-wrapped configure/release record"
    ),
    "api.service.PlannerService.sessions": "the session cache's public view",
    "gpu.mig.PartitionState.swapped": (
        "a tool many tests use; moving it under tests/ simplifies nothing"
    ),
    "workloads.suite.BenchmarkSuite.subset": (
        "a tool many tests use; moving it under tests/ simplifies nothing"
    ),
}


def _modules() -> list[Path]:
    return sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _qualified(path: Path) -> str:
    return ".".join(path.relative_to(PACKAGE).with_suffix("").parts)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _registered(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "register" for d in node.decorator_list
    )


def _defined(tree: ast.Module) -> dict[str, str]:
    """Qualified name -> bare name of each function, class and method."""
    defined: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _dunder(node.name):
                defined[node.name] = node.name
        elif isinstance(node, ast.ClassDef):
            if not _registered(node):
                defined[node.name] = node.name
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not _dunder(item.name):
                        defined[f"{node.name}.{item.name}"] = item.name
    return defined


def _appearing(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                names.update(node.value.split("."))
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unreached() -> set[str]:
    """Qualified names of ``src/repro`` definitions nothing outside tests names."""
    trees = {path: _parse(path) for path in _modules()}
    reached: set[str] = set()
    for tree in trees.values():
        reached |= _appearing(tree)
    for directory in OUTSIDE:
        for path in sorted((ROOT / directory).rglob("*.py")):
            reached |= _appearing(_parse(path))
    return {
        f"{_qualified(path)}.{qualified}"
        for path, tree in trees.items()
        for qualified, name in _defined(tree).items()
        if name not in reached
    }


def test_only_the_kept_names_lack_a_runtime_caller():
    assert unreached() == set(KEPT)


def test_prose_that_mentions_a_name_reaches_nothing():
    prose = ast.parse('"""See Foo.bar."""\nraise ValueError("use Foo.baz instead")')
    assert not {"Foo", "bar", "baz"} & _appearing(prose)


def test_the_scan_sees_dotted_string_targets():
    # perfbench wraps PlannerService.simulate_trace by a dotted string only.
    assert "simulate_trace" in _appearing(_parse(ROOT / "perfbench" / "layers.py"))
