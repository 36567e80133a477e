"""In-memory spans recorded from outside the program.

A traced run wraps faasplan's public functions where they are looked up
(the defining module and every faasplan module that imported the name),
so calls the library makes internally are timed too, without any code
inside ``src/``. Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request_id: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; the innermost open span is the parent of a new one."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request_id: int | None = None) -> Iterator[Span]:
        s = Span(len(self.spans), name, time.perf_counter(), 0.0,
                 self._stack[-1] if self._stack else None, request_id)
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = time.perf_counter()

    def add(self, name: str, start: float, end: float, parent: int | None,
            request_id: int | None = None) -> Span:
        """Record a span whose interval was measured elsewhere."""
        s = Span(len(self.spans), name, start, end, parent, request_id)
        self.spans.append(s)
        return s

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n", "utf-8")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged first, so
    overlapping children (concurrent requests) are not subtracted twice.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def descendants(spans: list[Span], root: int) -> set[int]:
    kids: dict[int, list[int]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s.id)
    out, todo = set(), [root]
    while todo:
        for k in kids.get(todo.pop(), ()):
            out.add(k)
            todo.append(k)
    return out


class Patches:
    """Wraps named functions in spans wherever faasplan modules hold them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module_name: str, func_name: str, span_name: str) -> None:
        original = getattr(sys.modules[module_name], func_name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.tracer.span(span_name):
                return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "faasplan" and getattr(mod, func_name, None) is original:
                self._undo.append((mod, func_name, original))
                setattr(mod, func_name, traced)

    def restore(self) -> None:
        for mod, name, original in reversed(self._undo):
            setattr(mod, name, original)
        self._undo.clear()

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def span_cost_s(n: int = 20_000) -> float:
    """Host seconds one nested span costs to record, measured here."""
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.span("outer"):
        for _ in range(n):
            with tracer.span("inner"):
                pass
    return (time.perf_counter() - t0) / (n + 1)
