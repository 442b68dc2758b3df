"""In-memory spans recorded by wrappers around the program's public calls.

The traced run replaces module-level functions and class attributes of
the program with thin wrappers (restored afterwards); nothing in ``src/``
changes.  A span records its name, start and end (``time.perf_counter``,
which is the system-wide monotonic clock on Linux, so spans of forked
shard processes share the axis), the span that caused it, the process
and thread, and attributes such as network, layer, backend and the
request ids a call carries.

The current span lives in a :class:`contextvars.ContextVar`, so asyncio
tasks and ``asyncio.to_thread`` workers (which copy the caller's context)
attribute their spans to the right parent.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    pid: int
    tid: int
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> str:
        return json.dumps(
            [self.id, self.parent, self.name, self.start, self.end,
             self.pid, self.tid, self.attrs],
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "Span":
        return cls(*json.loads(line))


class Tracer:
    """Span buffer plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "cnvbench_span", default=None
        )
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _record(self, span_id, parent, name, start, attrs) -> None:
        self.spans.append(
            Span(span_id, parent, name, start, time.perf_counter(),
                 os.getpid(), threading.get_ident(), attrs)
        )

    @contextlib.contextmanager
    def phase(self, name: str, **attrs):
        """A span around a stretch of benchmark code (set-up, warm-up)."""
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._current.reset(token)
            self._record(span_id, parent, name, start, attrs)

    def wrap(self, func, name: str, attrs=None):
        """``func`` recording one span per call.

        ``attrs(args, kwargs, result)`` returns the span's attributes; it
        runs after the call so it may read the result, and never sees an
        exception (a failing call still records its span).
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = next(tracer._ids)
            parent = tracer._current.get()
            token = tracer._current.set(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer._current.reset(token)
                tracer._record(
                    span_id, parent, name, start,
                    attrs(args, kwargs, result) if attrs else {},
                )

        return wrapper

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch_attr(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_function(self, module, name: str, span_name: str, attrs=None,
                       everywhere: bool = True) -> None:
        """Wrap ``module.name``; with ``everywhere``, also every other
        ``repro.*`` module that imported the same function object."""
        original = getattr(module, name)
        wrapped = self.wrap(original, span_name, attrs)
        owners = [module]
        if everywhere:
            owners = [
                mod for key, mod in sorted(sys.modules.items())
                if (key == "repro" or key.startswith("repro."))
                and mod is not None and mod.__dict__.get(name) is original
            ]
        for owner in owners:
            self.patch_attr(owner, name, wrapped)

    def patch_method(self, cls, name: str, span_name: str, attrs=None) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            self.patch_attr(
                cls, name, classmethod(self.wrap(raw.__func__, span_name, attrs))
            )
        else:
            self.patch_attr(cls, name, self.wrap(raw, span_name, attrs))

    def patch_item(self, mapping: dict, key, span_name: str) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = self.wrap(mapping[key], span_name)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # child processes
    # ------------------------------------------------------------------
    def forked_child(self) -> None:
        """Forget the parent's spans in a freshly forked child."""
        self.spans = []
        self._current.set(None)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(span.to_json())
                handle.write("\n")


def load_spans(path) -> list[Span]:
    with open(path) as handle:
        return [Span.from_json(line) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
class SpanIndex:
    """Parent/child lookups over spans from any number of processes."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_key = {(s.pid, s.id): s for s in spans}
        self.children: dict[tuple, list[Span]] = {}
        for span in spans:
            if span.parent is not None:
                self.children.setdefault((span.pid, span.parent), []).append(span)

    def parent(self, span: Span) -> Span | None:
        if span.parent is None:
            return None
        return self.by_key.get((span.pid, span.parent))

    def ancestor_attr(self, span: Span, key: str):
        node = self.parent(span)
        while node is not None:
            if key in node.attrs:
                return node.attrs[key]
            node = self.parent(node)
        return None

    def has_ancestor(self, span: Span, names) -> bool:
        node = self.parent(span)
        while node is not None:
            if node.name in names:
                return True
            node = self.parent(node)
        return False

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it its child spans cover."""
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.children.get((span.pid, span.id), [])
        )
        covered = 0.0
        cursor = span.start
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return span.duration - covered
