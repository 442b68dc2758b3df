"""Hierarchical spans with Chrome trace-event export.

The tracing half of :mod:`repro.obs`: code brackets interesting work in
*spans* — named intervals with a category and structured attributes —
via the :func:`span` context manager or the :func:`traced` decorator.
Durations come from ``time.perf_counter`` (monotonic; a span can never
be negative even if the wall clock steps), while absolute timestamps are
anchored to one wall-clock epoch per process so spans recorded in
different worker processes line up on a single timeline.

Tracing is **off by default and off-by-default-cheap**: with tracing
disabled :func:`span` returns a shared no-op object without reading the
clock or touching any buffer, so instrumented hot paths (per-layer
forwards, per-unit execution) cost one predicate check.  Enabling it
(``--trace trace.json`` on the experiment runner, or the process
settings' ``trace`` field, ``CNVLUTIN_TRACE``) buffers completed spans
per process; :func:`drain_events` hands the buffer to whoever ships it
(the parallel runner returns worker buffers through the pool and merges
them into the parent's), and :func:`write_chrome_trace` serializes the
merged buffer as Chrome trace-event JSON — load it in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.

Every event is a "complete" (``"ph": "X"``) trace event carrying
``name``, ``cat``, microsecond ``ts``/``dur``, the recording ``pid`` and
``tid``, and its attributes under ``args`` (including the span's nesting
``depth`` within its thread).  Spans recorded on the same thread nest by
construction: a child enters after and exits before its parent.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path

from repro import settings

__all__ = [
    "Span",
    "span",
    "traced",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "reset_tracing",
    "drain_events",
    "extend_events",
    "event_count",
    "write_chrome_trace",
    "validate_chrome_trace",
]


class _TracerState:
    """Per-process tracer: enabled flag, event buffer, clock anchors."""

    def __init__(self) -> None:
        #: None until enable/disable_tracing() is called; until then
        #: the process settings' ``trace`` decides, read at each check
        #: rather than at import, so importing repro.obs parses nothing.
        self.enabled: bool | None = None
        self.events: list[dict] = []
        self.lock = threading.Lock()
        self.local = threading.local()
        self.rebase_clocks()

    def rebase_clocks(self) -> None:
        """Pin the wall-clock epoch that perf_counter offsets hang off."""
        self.wall_epoch = time.time()
        self.perf_epoch = time.perf_counter()

    def stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack


_STATE = _TracerState()


def _after_fork_in_child() -> None:
    """A forked worker must not inherit (and later re-ship) the parent's
    buffered events; its clock anchors stay valid, the buffer does not."""
    _STATE.events = []
    _STATE.lock = threading.Lock()
    _STATE.local = threading.local()


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(after_in_child=_after_fork_in_child)


class Span:
    """One in-flight traced interval; created via :func:`span`."""

    __slots__ = ("name", "cat", "args", "_start", "_depth")

    def __init__(self, name: str, cat: str, args: dict):
        self.name = name
        self.cat = cat
        self.args = args

    def set(self, **attrs) -> "Span":
        """Attach attributes discovered mid-span (e.g. a cache verdict)."""
        self.args.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = _STATE.stack()
        self._depth = len(stack)
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        stack = _STATE.stack()
        if stack and stack[-1] is self:
            stack.pop()
        args = self.args
        args["depth"] = self._depth
        if exc_type is not None:
            args["error"] = exc_type.__name__
        event = {
            "name": self.name,
            "cat": self.cat,
            "ph": "X",
            "ts": (_STATE.wall_epoch + self._start - _STATE.perf_epoch) * 1e6,
            "dur": (end - self._start) * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": args,
        }
        with _STATE.lock:
            _STATE.events.append(event)
        return False


class _NullSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, cat: str = "app", **attrs):
    """A context manager tracing ``name``; a shared no-op when disabled."""
    if not tracing_enabled():
        return _NULL_SPAN
    return Span(name, cat, attrs)


def traced(name: str | None = None, cat: str = "app"):
    """Decorator form of :func:`span` (span name defaults to the function's
    qualified name)."""

    def decorate(func):
        span_name = name if name is not None else func.__qualname__

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracing_enabled():
                return func(*args, **kwargs)
            with Span(span_name, cat, {}):
                return func(*args, **kwargs)

        return wrapper

    return decorate


def enable_tracing() -> None:
    _STATE.enabled = True


def disable_tracing() -> None:
    _STATE.enabled = False


def tracing_enabled() -> bool:
    enabled = _STATE.enabled
    return settings.current().trace if enabled is None else enabled


def reset_tracing() -> None:
    """Drop all buffered events (the enabled flag is left alone)."""
    with _STATE.lock:
        _STATE.events = []
    _STATE.local = threading.local()


def drain_events() -> list[dict]:
    """Return and clear this process's buffered events (ship-and-merge)."""
    with _STATE.lock:
        events, _STATE.events = _STATE.events, []
    return events


def extend_events(events: list[dict]) -> None:
    """Merge events recorded elsewhere (a worker process) into the buffer.

    Workers carry their own ``pid``, so merged events stay attributed;
    their timestamps share the wall-clock anchor, so the merged trace is
    one coherent timeline.
    """
    if not events:
        return
    with _STATE.lock:
        _STATE.events.extend(events)


def event_count() -> int:
    with _STATE.lock:
        return len(_STATE.events)


def write_chrome_trace(path: Path | str, events: list[dict] | None = None) -> int:
    """Write buffered (or given) events as a Chrome trace-event JSON file.

    Returns the number of events written.  The buffer is *not* cleared —
    callers that want ship-and-merge semantics use :func:`drain_events`.
    """
    if events is None:
        with _STATE.lock:
            events = list(_STATE.events)
    events = sorted(events, key=lambda e: (e["pid"], e["tid"], e["ts"]))
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return len(events)


def validate_chrome_trace(document: dict) -> list[str]:
    """Problems (empty list = valid) with a Chrome trace-event document.

    Checks the shape the viewers require: a ``traceEvents`` list whose
    entries carry ``name``/``ph``/``ts``/``pid``/``tid``, with ``"X"``
    events carrying a non-negative ``dur``.  Used by tests and CI.
    """
    problems: list[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["document has no traceEvents list"]
    required = ("name", "ph", "ts", "pid", "tid")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index} is not an object")
            continue
        missing = [key for key in required if key not in event]
        if missing:
            problems.append(f"event {index} missing keys {missing}")
            continue
        if event["ph"] == "X":
            if "dur" not in event:
                problems.append(f"event {index} ({event['name']}) has no dur")
            elif event["dur"] < 0:
                problems.append(
                    f"event {index} ({event['name']}) has negative dur "
                    f"{event['dur']}"
                )
        if event["ts"] < 0:
            problems.append(f"event {index} ({event['name']}) has negative ts")
    return problems
