"""In-memory span recorder for the traced benchmark run.

A span is one call into a wrapped function: its name, start, end, and the
span that was open when it started (its parent).  Spans are appended to
flat arrays while the run executes and are only analysed, or written out,
after it ends, so the per-call cost is two clock reads and a few appends.

The wrapping happens at runtime from the benchmark's own files: the
program under test is not edited.  :meth:`SpanRecorder.install` replaces a
function (or method, classmethod, staticmethod) with a recording wrapper
everywhere it is bound — its defining module or class and every module
that imported it by name — and :meth:`SpanRecorder.uninstall` puts the
originals back.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

#: Optional per-span work count derived from a call's arguments and result.
CountFn = Callable[[tuple, Any], int]
#: Optional per-call observer; its return values are kept per span name.
ObserveFn = Callable[[tuple, Any], Any]


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module:qualname``, reported as ``name``."""

    module: str
    qualname: str
    name: str
    count: CountFn | None = None
    observe: ObserveFn | None = None


class SpanRecorder:
    """Records nested spans of wrapped calls on one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self.ids = array("q")
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.failed = array("b")
        self.counts = array("q")
        self.observations: dict[str, list[Any]] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        """The integer id of span name ``name`` (allocated on first use)."""
        found = self._name_ids.get(name)
        if found is None:
            found = len(self.names)
            self._name_ids[name] = found
            self.names.append(name)
        return found

    def add(
        self, name: str, start: float, end: float, parent: int = -1, count: int = 0
    ) -> int:
        """Record a finished span directly (a measured phase, or a test nest)."""
        span_id = self._next_id
        self._next_id += 1
        self._append(span_id, self.name_id(name), parent, start, end, False, count)
        return span_id

    def _append(
        self,
        span_id: int,
        name_id: int,
        parent: int,
        start: float,
        end: float,
        failed: bool,
        count: int,
    ) -> None:
        self.ids.append(span_id)
        self.name_ids.append(name_id)
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        self.failed.append(1 if failed else 0)
        self.counts.append(count)

    def wrap(
        self,
        fn: Callable,
        name: str,
        count: CountFn | None = None,
        observe: ObserveFn | None = None,
    ) -> Callable:
        """A wrapper around ``fn`` that records one span per call."""
        name_id = self.name_id(name)
        stack = self._stack
        append = self._append
        observed = self.observations.setdefault(name, []) if observe else None

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                append(span_id, name_id, parent, start, end, True, 0)
                raise
            end = perf_counter()
            stack.pop()
            append(
                span_id,
                name_id,
                parent,
                start,
                end,
                False,
                count(args, result) if count is not None else 0,
            )
            if observed is not None:
                observed.append(observe(args, result))
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def install(self, targets: list[Target]) -> None:
        """Wrap every target in place (see the module docstring)."""
        for target in targets:
            owner: Any = importlib.import_module(target.module)
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(
                    self.wrap(raw.__func__, target.name, target.count, target.observe)
                )
                self._patch(owner, attr, wrapped)
                continue
            wrapped = self.wrap(raw, target.name, target.count, target.observe)
            self._patch(owner, attr, wrapped)
            if not path:
                # A module-level function may also be bound by name in the
                # modules that imported it; those bindings are the ones the
                # program actually calls.
                for module in list(sys.modules.values()):
                    if module is not owner and getattr(module, attr, None) is raw:
                        self._patch(module, attr, wrapped)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched binding (in reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def table(self) -> "SpanTable":
        """A column view of every recorded span, indexed by span id."""
        return SpanTable.from_recorder(self)

    def write(self, path: Path) -> Path:
        """Write every span to ``path`` as columnar JSON."""
        table = self.table()
        payload = {
            "names": self.names,
            "name": table.name.tolist(),
            "parent": table.parent.tolist(),
            "start": table.start.tolist(),
            "end": table.end.tolist(),
            "failed": table.failed.tolist(),
            "count": table.count.tolist(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))
        return path


@dataclass(frozen=True)
class SpanTable:
    """Span columns indexed by span id, plus derived self times.

    ``self_s[i]`` is span ``i``'s duration minus the durations of its
    direct children.  Children nest inside their parent on a single
    thread, so this is exactly the part of the interval no child covers.
    ``order`` lists span ids in the order the spans were recorded.
    """

    names: tuple[str, ...]
    order: np.ndarray
    name: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    failed: np.ndarray
    count: np.ndarray
    self_s: np.ndarray

    @classmethod
    def from_recorder(cls, recorder: SpanRecorder) -> "SpanTable":
        ids = np.frombuffer(recorder.ids, dtype=np.int64)
        n = len(ids)

        def by_id(column: array, dtype: Any) -> np.ndarray:
            out = np.empty(n, dtype=dtype)
            out[ids] = np.frombuffer(column, dtype=dtype) if n else []
            return out

        name = by_id(recorder.name_ids, np.int32)
        parent = by_id(recorder.parents, np.int64)
        start = by_id(recorder.starts, np.float64)
        end = by_id(recorder.ends, np.float64)
        failed = by_id(recorder.failed, np.int8).astype(bool)
        count = by_id(recorder.counts, np.int64)
        duration = end - start
        children = np.zeros(n, dtype=np.float64)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        return cls(
            names=tuple(recorder.names),
            order=ids.copy(),
            name=name,
            parent=parent,
            start=start,
            end=end,
            failed=failed,
            count=count,
            self_s=duration - children,
        )

    @property
    def duration(self) -> np.ndarray:
        """End minus start of every span."""
        return self.end - self.start

    def mask(self, *names: str) -> np.ndarray:
        """Boolean mask of the spans called one of ``names``."""
        wanted = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.name, wanted)

    def has_descendant(self, *names: str) -> np.ndarray:
        """Per span: whether any span below it is called one of ``names``."""
        hit = self.mask(*names).tolist()
        parents = self.parent.tolist()
        flag = [False] * len(parents)
        # Spans are recorded as they end and a child always ends before its
        # parent, so walking them in recording order settles every child
        # before the parent reads it.
        for span in self.order.tolist():
            parent = parents[span]
            if parent >= 0 and (hit[span] or flag[span]):
                flag[parent] = True
        return np.array(flag, dtype=bool)

    def within(self, start: float, end: float) -> np.ndarray:
        """Mask of spans that started inside ``[start, end)``."""
        return (self.start >= start) & (self.start < end)
