"""Span tracing around calls into each layer, from the benchmark's side.

A :class:`Tracer` wraps named public callables of the loaded ``repro``
modules.  A plain function is wrapped by rebinding *every* module
attribute that refers to it, so ``from x import f`` copies are caught
as well as ``x.f``; a method is wrapped on its defining class.
:meth:`Tracer.restore` puts every original back.

Spans are ``(name, start, end, parent, op)`` tuples kept in memory; the
parent is the index of the enclosing span (``-1`` at top level) and
``op`` the operation id the workload set when the span opened.  The
benchmark is single-threaded, so spans nest strictly.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

Span = tuple[str, float, float, int, int]


@dataclass(frozen=True)
class Probe:
    """One callable to trace.

    Attributes:
        span: Span name recorded for each call.
        module: Module that defines the callable.
        attr: ``"function"`` or ``"Class.method"`` inside ``module``.
        on_result: Optional ``(tracer, args, kwargs, result)`` hook,
            called after each traced call to update counters.
    """

    span: str
    module: str
    attr: str
    on_result: Callable[["Tracer", tuple, dict, Any], None] | None = None


class Tracer:
    """In-memory span recorder with install/restore of wrappers.

    Args:
        clock: Monotonic-seconds source for span stamps.
        prefix: Only modules named ``prefix`` or ``prefix.*`` are
            rebound.
    """

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter, prefix: str = "repro"
    ) -> None:
        self.clock = clock
        self.prefix = prefix
        #: Wrappers record only while this is true.
        self.active = False
        #: Operation id stamped on spans opened from now on.
        self.op_id = 0
        self.spans: list[Span] = []
        #: Hook counters, per operation id then per key.
        self.counters: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        #: Distinct items seen by hooks, per operation id then per key.
        self.distinct: dict[int, dict[str, set]] = defaultdict(
            lambda: defaultdict(set)
        )
        #: Objects hooks chose to keep (e.g. telemetry writers), per
        #: operation id then per key.
        self.kept: dict[int, dict[str, list]] = defaultdict(
            lambda: defaultdict(list)
        )
        #: Called once the per-layer scope (set-up plus the first timed
        #: iteration) has ended.
        self.scope_hooks: list[Callable[[], None]] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[Any, str, Any, Any]] = []
        self._originals: dict[int, Any] = {}

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        """A wrapper that records a span per call while active."""
        tracer = self
        name = probe.span
        hook = probe.on_result

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            op = tracer.op_id
            # Reserve the slot so a parent always precedes its children.
            tracer.spans.append((name, 0.0, 0.0, parent, op))
            tracer._stack.append(index)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, op)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def _modules(self) -> list[Any]:
        prefix = self.prefix
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None
            and (name == prefix or name.startswith(prefix + "."))
        ]

    def install(self, probes: list[Probe]) -> None:
        """Wrap every probe's callable wherever the loaded modules hold it."""
        for probe in probes:
            owner = importlib.import_module(probe.module)
            class_name, _, attr = probe.attr.rpartition(".")
            if class_name:
                cls = getattr(owner, class_name)
                original = cls.__dict__[attr]
                wrapper = self.wrap(probe, original)
                setattr(cls, attr, wrapper)
                self._bindings.append((cls, attr, original, wrapper))
            else:
                original = getattr(owner, attr)
                wrapper = self.wrap(probe, original)
                for module in self._modules():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._bindings.append((module, key, original, wrapper))
            self._originals[id(wrapper)] = original

    def restore(self) -> None:
        """Put every original callable back (idempotent)."""
        for owner, key, original, wrapper in reversed(self._bindings):
            if getattr(owner, key, None) is wrapper:
                setattr(owner, key, original)
        # Modules imported while wrappers were live may hold copies.
        for module in self._modules():
            for key, value in list(vars(module).items()):
                original = self._originals.get(id(value))
                if original is not None:
                    setattr(module, key, original)
        self._bindings.clear()
        self._originals.clear()

    def end_scope(self) -> None:
        """Run the scope hooks (snapshots taken where the scope ends)."""
        for hook in self.scope_hooks:
            hook()

    # ------------------------------------------------------------------
    # Hook helpers
    # ------------------------------------------------------------------
    def count(self, key: str, value: float = 1) -> None:
        """Add to a counter of the current operation."""
        self.counters[self.op_id][key] += value

    def see(self, key: str, item: Any) -> None:
        """Record a distinct item for the current operation."""
        self.distinct[self.op_id][key].add(item)

    def keep(self, key: str, obj: Any) -> None:
        """Hold an object for inspection at the end of the run."""
        self.kept[self.op_id][key].append(obj)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self, ops: set[int] | None = None) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``,
        over the spans of ``ops`` (all spans when ``None``)."""
        return summarize(self.spans, ops)

    def counter(self, key: str, ops: set[int]) -> float:
        """A hook counter summed over ``ops``."""
        return sum(self.counters[op][key] for op in ops if op in self.counters)

    def distinct_count(self, key: str, ops: set[int]) -> int:
        """Distinct items of ``key`` across ``ops``."""
        items: set = set()
        for op in ops:
            if op in self.distinct:
                items |= self.distinct[op][key]
        return len(items)

    def kept_objects(self, key: str, ops: set[int]) -> list:
        """Objects kept under ``key`` during ``ops``."""
        return [
            obj for op in sorted(ops) if op in self.kept for obj in self.kept[op][key]
        ]

    def write(self, path: Path) -> None:
        """Dump every span as one JSON array of ``[name, start, end,
        parent, op]`` rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([list(span) for span in self.spans]))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result


def summarize(
    spans: list[Span], ops: set[int] | None = None
) -> dict[str, dict[str, float]]:
    """Calls, inclusive and self seconds per span name (over ``ops``)."""
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        if ops is not None and span[4] not in ops:
            continue
        entry = table[span[0]]
        entry["calls"] += 1
        entry["total_s"] += span[2] - span[1]
        entry["self_s"] += own
    return dict(table)
