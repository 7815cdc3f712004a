"""Every ``src/repro`` function, class, method and dataclass field has a
reader outside ``tests/``.

A helper that only tests call, or a field that only tests read, is code the
planner carries for nothing, and it tends to come back one name at a time.
This walks every non-``__init__`` module under ``src/repro``, collects its
module-level functions and classes, the methods of those classes (dunders
skipped) and the fields of every ``@dataclass`` (``ClassVar`` and
``init=False`` fields skipped), and checks each against where a runtime
path, benchmark, example or script lives: ``src/repro`` itself
(``__init__`` re-exports excluded), ``benchmarks/``, ``perfbench/``,
``examples/`` and ``scripts/``.

A function, class or method name *appears* as an ``ast.Name``, an
attribute, an imported name or a segment of a string constant that is a
whole dotted name (perfbench wraps its entry points by strings such as
``"PlannerService.simulate_trace"``).  Classes registered by a decorator
(the lint rules) count as reached.  A field is *read* when its name is
loaded as an attribute anywhere but in its own class's ``__post_init__``:
a field only its own validation reads is still write-only.  The classes
of :data:`DOCUMENTS` travel whole through ``asdict`` or ``fields``, so
every field of theirs counts as read.  The match is by name, so it can
miss dead code whose name something else shares; it never flags live
code.  What no runtime path reaches but stays on purpose is :data:`KEPT`
or :data:`KEPT_FIELDS`.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
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

#: Dataclass fields no runtime path reads, kept on purpose: name -> reason.
KEPT_FIELDS = {
    "sim.results.CoRunResult.relative_frequency": (
        "the governor's clock, which the batch-against-scalar engine tests "
        "compare bit for bit"
    ),
}

#: Classes (or whole modules of them) serialized field by field through
#: ``dataclasses.asdict``/``fields``: the service's requests and results,
#: the replay's latency statistics and a lint finding.
DOCUMENTS = (
    "api.requests",
    "api.results",
    "cluster.events.report.LatencyStats",
    "lint.findings.Finding",
)


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _init_false(value: ast.expr | None) -> bool:
    return isinstance(value, ast.Call) and any(
        keyword.arg == "init"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is False
        for keyword in value.keywords
    )


def _fields(node: ast.ClassDef) -> list[str]:
    """The dataclass's init fields, ``ClassVar`` pseudo-fields excluded."""
    return [
        item.target.id
        for item in node.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and "ClassVar" not in ast.unparse(item.annotation)
        and not _init_false(item.value)
    ]


def _loads(node: ast.AST) -> Counter[str]:
    """How often each attribute name is loaded under ``node``."""
    return Counter(
        child.attr
        for child in ast.walk(node)
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load)
    )


def _own_validation(node: ast.ClassDef) -> Counter[str]:
    """The attribute loads of the class's own ``__post_init__``."""
    loads: Counter[str] = Counter()
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__post_init__":
            loads += _loads(item)
    return loads


def _documented(owner: str) -> bool:
    return any(owner == document or owner.startswith(document + ".") for document in DOCUMENTS)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _trees() -> tuple[dict[Path, ast.Module], list[ast.Module]]:
    """The ``src/repro`` modules by path, and every tree a runtime path lives in."""
    trees = {path: _parse(path) for path in _modules()}
    outside = [
        _parse(path) for directory in OUTSIDE for path in sorted((ROOT / directory).rglob("*.py"))
    ]
    return trees, [*trees.values(), *outside]


def unreached() -> set[str]:
    """Qualified names of ``src/repro`` definitions nothing outside tests names."""
    trees, everywhere = _trees()
    reached: set[str] = set()
    for tree in everywhere:
        reached |= _appearing(tree)
    return {
        f"{_qualified(path)}.{qualified}"
        for path, tree in trees.items()
        for qualified, name in _defined(tree).items()
        if name not in reached
    }


def unread_fields() -> set[str]:
    """Qualified names of ``src/repro`` dataclass fields nothing outside tests reads."""
    trees, everywhere = _trees()
    loads: Counter[str] = Counter()
    for tree in everywhere:
        loads += _loads(tree)
    unread = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            owner = f"{_qualified(path)}.{node.name}"
            if _documented(owner):
                continue
            own = _own_validation(node)
            unread.update(
                f"{owner}.{name}" for name in _fields(node) if loads[name] <= own[name]
            )
    return unread


def test_only_the_kept_names_lack_a_runtime_caller():
    assert unreached() == set(KEPT)


def test_only_the_kept_fields_lack_a_runtime_reader():
    assert unread_fields() == set(KEPT_FIELDS)


def test_every_document_entry_names_dataclasses():
    trees, _ = _trees()
    owners = [
        f"{_qualified(path)}.{node.name}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
    ]
    for document in DOCUMENTS:
        assert any(owner == document or owner.startswith(document + ".") for owner in owners)


def test_a_field_read_only_by_its_own_validation_is_unread():
    tree = ast.parse(
        "@dataclass\nclass Spec:\n    size: int\n    label: str\n"
        "    def __post_init__(self):\n        assert self.size > 0\n"
        "print(spec.label)\n"
    )
    (node,) = [n for n in tree.body if isinstance(n, ast.ClassDef)]
    loads, own = _loads(tree), _own_validation(node)
    assert [name for name in _fields(node) if loads[name] <= own[name]] == ["size"]


def test_classvars_and_init_false_fields_are_not_fields():
    tree = ast.parse(
        "@dataclass(frozen=True)\nclass Event:\n    priority: ClassVar[int] = 1\n"
        "    time: float\n    key: tuple = field(init=False, repr=False)\n"
    )
    (node,) = tree.body
    assert _is_dataclass(node) and _fields(node) == ["time"]


def test_prose_that_mentions_a_name_reaches_nothing():
    prose = ast.parse('"""See Foo.bar."""\nraise ValueError("use Foo.baz instead")')
    assert not {"Foo", "bar", "baz"} & _appearing(prose)


def test_the_scan_sees_dotted_string_targets():
    # perfbench wraps PlannerService.simulate_trace by a dotted string only.
    assert "simulate_trace" in _appearing(_parse(ROOT / "perfbench" / "layers.py"))
