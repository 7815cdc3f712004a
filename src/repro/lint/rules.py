"""The rule registry: every invariant the analyzer mechanizes.

Each rule encodes one repository invariant that parity (bit-exact
reproduction of the paper's numbers) or cache coherence rests on.  A rule
is a small AST check over one module; it yields ``(line, col, message)``
triples and the analyzer turns them into
:class:`~repro.lint.findings.Finding` records, applies ``# repro:
allow[RLxxx]`` suppressions, and sorts the result.

The rules:

========  =============================================================
RL001     memo mapping keyed on ``id(obj)`` without a weakref identity
          guard (the PR-7 dispatch-memo flake class)
RL002     iteration over an unordered ``set``/``frozenset`` where the
          resulting order feeds fits, enumeration, or serialization
RL003     a class with a ``version`` membership counter whose method
          mutates memo-feeding container state without bumping it
RL004     numpy reductions (``np.sum``/``arr.sum()``/``sum(arr)``) in
          parity-pinned power-budget and engine modules instead of
          sequential, index-order summation
RL005     non-frozen dataclasses on the ``repro.api`` surface, and
          mutable default arguments anywhere
RL006     global-state randomness (``random.*`` / ``np.random.*``)
          outside seeded ``Random``/``Generator`` instances
========  =============================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.findings import Severity

#: ``(line, col, message)`` — the raw shape a rule check yields.
RawFinding = tuple[int, int, str]


# ----------------------------------------------------------------------
# Module context: one parsed file plus its import environment.
# ----------------------------------------------------------------------
@dataclass
class ModuleContext:
    """One module under analysis: path, AST, and resolved import aliases."""

    path: str
    tree: ast.Module
    source: str
    #: local name -> dotted module path (``import numpy as np``).
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: local name -> (module, original name) (``from weakref import ref``).
    imported_names: dict[str, tuple[str, str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleContext":
        """Parse ``source`` and resolve its top-level import aliases."""
        tree = ast.parse(source, filename=path)
        ctx = cls(path=path, tree=tree, source=source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        ctx.module_aliases[alias.asname] = alias.name
                    else:
                        # ``import numpy.random`` binds the top-level name.
                        top = alias.name.split(".")[0]
                        ctx.module_aliases[top] = top
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    ctx.imported_names[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )
        return ctx

    def names_of_module(self, dotted: str) -> set[str]:
        """The local names bound to module ``dotted`` (via plain imports)."""
        return {
            local for local, module in self.module_aliases.items() if module == dotted
        }

    def names_from_module(self, dotted: str) -> dict[str, str]:
        """Local name -> original name for ``from dotted import ...`` bindings."""
        return {
            local: original
            for local, (module, original) in self.imported_names.items()
            if module == dotted
        }


# ----------------------------------------------------------------------
# Scope walking: the module and each function body are separate scopes.
# ----------------------------------------------------------------------
def _own_nodes(root: ast.AST) -> list[ast.AST]:
    """Every AST node belonging to ``root``'s scope.

    Traversal stops at nested function boundaries (each function is its own
    scope); class bodies and lambdas belong to the enclosing scope.
    """
    out: list[ast.AST] = []
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return out


def _scopes(tree: ast.Module) -> Iterator[tuple[ast.AST, list[ast.AST]]]:
    """Yield ``(scope_root, nodes)`` for the module and every function."""
    yield tree, _own_nodes(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, _own_nodes(node)


# ----------------------------------------------------------------------
# Rule base + registry
# ----------------------------------------------------------------------
class Rule:
    """One invariant check.  Subclasses set the metadata and ``check``."""

    rule_id: str
    title: str
    severity: Severity
    rationale: str
    #: Substring patterns the module path must match for the rule to run;
    #: ``None`` runs everywhere.  Matching is against the POSIX path.
    path_patterns: tuple[str, ...] | None = None

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on the module at ``path``."""
        if self.path_patterns is None:
            return True
        return any(pattern in path for pattern in self.path_patterns)

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        """Yield ``(line, col, message)`` for each violation."""
        raise NotImplementedError

    @property
    def doc(self) -> str:
        """One-line registry documentation (``--list-rules`` output)."""
        return f"{self.rule_id} [{self.severity.value}] {self.title}"


#: The registry, in rule-id order.
RULES: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one rule instance to :data:`RULES`."""
    rule = cls()
    if rule.rule_id in RULES:
        raise ValueError(f"duplicate rule id {rule.rule_id}")
    RULES[rule.rule_id] = rule
    return cls


# ----------------------------------------------------------------------
# RL001 — id()-keyed memos need a weakref identity guard
# ----------------------------------------------------------------------
def _is_id_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
        and len(node.args) == 1
    )


@register
class IdKeyedMemoRule(Rule):
    """``X[id(obj)]`` / ``X.get(id(obj))`` without a weakref in scope.

    The PR-7 flake: a memo keyed on ``id(queue)`` kept answering for a
    *dead* queue whose address the allocator had recycled for a fresh one.
    An id-keyed entry must hold ``weakref.ref(obj)`` and prove
    ``ref() is obj`` on lookup (a dead referent can never alias a live
    object), as :mod:`repro.cluster.scheduler` does.
    """

    rule_id = "RL001"
    title = "memo keyed on id(obj) without a weakref identity guard"
    severity = Severity.ERROR
    rationale = (
        "a dead object's address can be recycled by a fresh object, so an "
        "id-keyed memo without a live-reference proof serves stale entries "
        "(the PR-7 dispatch-memo flake)"
    )

    _keyed_methods = frozenset({"get", "pop", "setdefault"})

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        weakref_modules = ctx.names_of_module("weakref")
        weakref_froms = set(ctx.names_from_module("weakref"))
        for _, nodes in _scopes(ctx.tree):
            sites = [node for node in nodes if self._is_id_keyed(node)]
            if not sites:
                continue
            if self._uses_weakref(nodes, weakref_modules, weakref_froms):
                continue
            for site in sites:
                yield (
                    site.lineno,
                    site.col_offset,
                    "mapping keyed on id(...) without a weakref identity "
                    "guard; hold weakref.ref(obj) in the entry and verify "
                    "`ref() is obj` on lookup so a recycled address can "
                    "never alias a live object",
                )

    def _is_id_keyed(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Subscript) and _is_id_call(node.slice):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in self._keyed_methods
            and bool(node.args)
            and _is_id_call(node.args[0])
        )

    @staticmethod
    def _uses_weakref(
        nodes: list[ast.AST], modules: set[str], froms: set[str]
    ) -> bool:
        for node in nodes:
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                return True
            if isinstance(node, ast.Name) and node.id in froms:
                return True
        return False


# ----------------------------------------------------------------------
# RL002 — no order-sensitive iteration over unordered sets
# ----------------------------------------------------------------------
def _is_setish(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


@register
class UnorderedSetIterationRule(Rule):
    """Iterating a set where the order escapes into results.

    Set iteration order depends on insertion history and hash seeds; any
    fit row order, enumeration order, or serialized sequence built from it
    breaks the repo's bit-exact parity pins.  Wrap the set in ``sorted()``.
    A set built *from* a set (``{f(x) for x in s}``) stays order-free and
    is accepted.
    """

    rule_id = "RL002"
    title = "unordered set iteration feeding order-sensitive results"
    severity = Severity.ERROR
    rationale = (
        "set order varies with insertion history, so fit rows, enumerated "
        "states, and serialized sequences built from it are not bit-exact"
    )

    _message = (
        "iteration over an unordered set makes the downstream order "
        "nondeterministic; wrap it in sorted(...) to keep the result "
        "bit-exact"
    )

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and _is_setish(node.iter):
                yield node.iter.lineno, node.iter.col_offset, self._message
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if _is_setish(generator.iter):
                        yield (
                            generator.iter.lineno,
                            generator.iter.col_offset,
                            self._message,
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in {"list", "tuple"}
                and len(node.args) == 1
                and _is_setish(node.args[0])
            ):
                yield node.lineno, node.col_offset, self._message


# ----------------------------------------------------------------------
# RL003 — version counters must see every membership mutation
# ----------------------------------------------------------------------
@register
class VersionCounterCoherenceRule(Rule):
    """A version-counter class mutating state without bumping the counter.

    The ``JobQueue`` pattern: consumers memoize work keyed on a ``version``
    membership counter and rely on every content mutation bumping it.  A
    mutating method that skips the bump silently serves stale memo entries
    downstream.
    """

    rule_id = "RL003"
    title = "memo-feeding mutation without a version-counter bump"
    severity = Severity.ERROR
    rationale = (
        "version-keyed caches (the dispatch-plan memo) invalidate on "
        "counter changes only; a skipped bump serves stale plans"
    )

    _counter_names = frozenset({"version", "_version"})
    _mutators = frozenset(
        {
            "append",
            "extend",
            "insert",
            "remove",
            "pop",
            "popitem",
            "popleft",
            "appendleft",
            "clear",
            "update",
            "add",
            "discard",
            "setdefault",
        }
    )

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and self._has_version_counter(node):
                yield from self._check_class(node)

    def _has_version_counter(self, cls: ast.ClassDef) -> bool:
        for node in ast.walk(cls):
            if (
                isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                and self._version_target(node)
            ):
                return True
        return False

    def _version_target(self, node: ast.AST) -> bool:
        targets: list[ast.AST]
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            return False
        return any(
            isinstance(target, ast.Attribute)
            and target.attr in self._counter_names
            and isinstance(target.value, ast.Name)
            for target in targets
        )

    def _check_class(self, cls: ast.ClassDef) -> Iterator[RawFinding]:
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__" or not method.args.args:
                continue
            self_name = method.args.args[0].arg
            nodes = _own_nodes(method)
            mutated = self._mutated_attrs(nodes, self_name)
            mutated -= self._counter_names
            if not mutated:
                continue
            if any(self._version_target(node) for node in nodes):
                continue
            yield (
                method.lineno,
                method.col_offset,
                f"method {method.name!r} mutates memo-feeding state "
                f"({', '.join(sorted(mutated))}) without bumping the "
                f"version membership counter; version-keyed caches will "
                f"serve stale entries",
            )

    def _mutated_attrs(self, nodes: list[ast.AST], self_name: str) -> set[str]:
        aliases: dict[str, str] = {}
        for node in nodes:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == self_name
            ):
                aliases[node.targets[0].id] = node.value.attr

        def state_attr(value: ast.AST) -> str | None:
            if (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == self_name
            ):
                return value.attr
            if isinstance(value, ast.Name) and value.id in aliases:
                return aliases[value.id]
            return None

        mutated: set[str] = set()
        for node in nodes:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._mutators
            ):
                attr = state_attr(node.func.value)
                if attr is not None:
                    mutated.add(attr)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        attr = state_attr(target.value)
                        if attr is not None:
                            mutated.add(attr)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        attr = state_attr(target.value)
                        if attr is not None:
                            mutated.add(attr)
        return mutated


# ----------------------------------------------------------------------
# RL004 — parity-pinned float reductions in power-budget and engine paths
# ----------------------------------------------------------------------
@register
class FloatReductionDisciplineRule(Rule):
    """numpy reductions where a parity pin requires sequential summation.

    ``np.sum`` uses pairwise reduction whose grouping — and therefore the
    exact float result — depends on array shape and backend.  The
    power-budget invariants are pinned to the sequential
    ``float(sum(arr.tolist()))`` idiom, which adds plain Python floats
    left to right, and the engine's lockstep solve must add pool and load
    terms member by member in index order to stay bit-identical to the
    scalar solve.
    """

    rule_id = "RL004"
    title = "numpy reduction in a parity-pinned power-budget or engine path"
    severity = Severity.ERROR
    rationale = (
        "np.sum's pairwise grouping changes the float result with array "
        "shape; the power-budget and engine parity pins require sequential "
        "summation (float(sum(arr.tolist())), or column by column)"
    )
    path_patterns = ("powerbudget", "/events/", "gpu/power", "sim/engine")

    _message = (
        "parity-pinned reduction: add sequentially (float(sum(arr.tolist())), "
        "or column by column in index order) instead of a numpy reduction "
        "(pairwise summation is shape-dependent)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "sum":
                # np.sum(...) and ndarray.sum() both reduce pairwise.
                yield node.lineno, node.col_offset, self._message
            elif (
                isinstance(func, ast.Name)
                and func.id == "sum"
                and len(node.args) == 1
                and isinstance(node.args[0], (ast.Name, ast.Attribute))
            ):
                # sum(arr) over a bare name may reduce numpy scalars; the
                # pinned idiom materializes Python floats via .tolist().
                yield node.lineno, node.col_offset, self._message


# ----------------------------------------------------------------------
# RL005 — API-boundary hygiene
# ----------------------------------------------------------------------
@register
class ApiBoundaryHygieneRule(Rule):
    """Non-frozen dataclasses on the API surface; mutable default args.

    ``repro.api`` request/response types are the public contract: they
    must stay frozen value objects so callers can hash, memoize, and share
    them.  Mutable default arguments are latent cross-call state anywhere.
    """

    rule_id = "RL005"
    title = "API dataclass not frozen / mutable default argument"
    severity = Severity.WARNING
    rationale = (
        "the api/ surface is a contract of hashable value objects; "
        "mutable defaults are shared state across calls"
    )

    _mutable_factories = frozenset({"list", "dict", "set", "bytearray"})

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        in_api = "api" in ctx.path.split("/")
        for node in ast.walk(ctx.tree):
            if in_api and isinstance(node, ast.ClassDef):
                decorator = self._dataclass_decorator(node)
                if decorator is not None and not self._is_frozen(decorator):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"dataclass {node.name!r} on the repro.api surface "
                        f"is not frozen; API types are hashable value "
                        f"objects (add frozen=True or justify the mutability)",
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = list(node.args.defaults) + [
                    default
                    for default in node.args.kw_defaults
                    if default is not None
                ]
                for default in defaults:
                    if self._is_mutable(default):
                        yield (
                            default.lineno,
                            default.col_offset,
                            "mutable default argument is shared across "
                            "calls; default to None and build inside the "
                            "function",
                        )

    @staticmethod
    def _dataclass_decorator(node: ast.ClassDef) -> ast.AST | None:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = (
                target.id
                if isinstance(target, ast.Name)
                else target.attr
                if isinstance(target, ast.Attribute)
                else None
            )
            if name == "dataclass":
                return decorator
        return None

    @staticmethod
    def _is_frozen(decorator: ast.AST) -> bool:
        if not isinstance(decorator, ast.Call):
            return False
        return any(
            keyword.arg == "frozen"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in decorator.keywords
        )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._mutable_factories
            and not node.args
            and not node.keywords
        )


# ----------------------------------------------------------------------
# RL006 — no global-state randomness
# ----------------------------------------------------------------------
@register
class UnseededRandomnessRule(Rule):
    """``random.*`` / ``np.random.*`` global-RNG calls.

    Global RNG state is shared by everything in the process: one extra
    draw anywhere reorders every later sample, so traces and noise stop
    replaying bit-exact.  Use a locally seeded ``random.Random(seed)`` or
    ``np.random.default_rng(seed)``.
    """

    rule_id = "RL006"
    title = "global-state randomness outside a seeded generator"
    severity = Severity.ERROR
    rationale = (
        "global RNG draws reorder every later sample in the process, so "
        "seeded traces and noise stop replaying bit-exact"
    )

    _random_ok = frozenset({"Random", "SystemRandom"})
    _np_ok = frozenset(
        {
            "default_rng",
            "Generator",
            "SeedSequence",
            "BitGenerator",
            "PCG64",
            "Philox",
            "MT19937",
            "SFC64",
        }
    )
    _message = (
        "global-RNG call mutates process-wide seed state; draw from a "
        "seeded random.Random(seed) / np.random.default_rng(seed) instead"
    )

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        random_modules = ctx.names_of_module("random")
        numpy_random_modules = ctx.names_of_module("numpy.random")
        numpy_modules = ctx.names_of_module("numpy")
        random_froms = ctx.names_from_module("random")
        numpy_random_froms = ctx.names_from_module("numpy.random")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                base = func.value.id
                if base in random_modules and func.attr not in self._random_ok:
                    yield func.lineno, func.col_offset, self._message
                elif (
                    base in numpy_random_modules and func.attr not in self._np_ok
                ):
                    yield func.lineno, func.col_offset, self._message
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in numpy_modules
                and func.attr not in self._np_ok
            ):
                yield func.lineno, func.col_offset, self._message
            elif isinstance(func, ast.Name):
                original = random_froms.get(func.id)
                if original is not None and original not in self._random_ok:
                    yield func.lineno, func.col_offset, self._message
                    continue
                original = numpy_random_froms.get(func.id)
                if original is not None and original not in self._np_ok:
                    yield func.lineno, func.col_offset, self._message
