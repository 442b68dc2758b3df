"""Work-conserving micro-batching: coalesce compatible requests while
every worker is busy, never hold one back from an idle worker.

The batcher is deliberately a *pure* data structure — no tasks, no
clocks — so the asyncio service can drive it and the unit tests can
single-step it.  It holds every pending request.  Requests group by
``(network, thresholds)`` (the compatibility key of
:func:`repro.serve.models.execute_batch`) in arrival order; a group is
*sealed* when it reaches ``max_batch`` entries (the next compatible
arrival opens a new group) or when the service flushes.

:meth:`take` hands a free worker the oldest group it may take: any
group, or in deterministic mode only a sealed one.  A request therefore
waits only while every worker is busy, and that is exactly when
compatible requests pile up into one batch — batches form under load
and an idle service never holds a request back.

Deterministic mode keeps fixed batch boundaries: batches cut at exactly
every ``max_batch``-th compatible arrival in submission order, and a
partial tail only moves on an explicit :meth:`flush` — so a test run
produces the same batches every time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Batch", "MicroBatcher"]


@dataclass
class Batch:
    """One group of pending entries, taken by a worker."""

    network: str
    thresholds_key: tuple
    entries: list[Any]
    reason: str  # "full" | "flush" | "idle" (a worker was free)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class _Group:
    key: tuple
    entries: list[Any] = field(default_factory=list)
    sealed: str | None = None  # why it stopped accepting: "full" | "flush"


class MicroBatcher:
    """Pending requests, grouped by compatibility key, oldest first."""

    def __init__(self, max_batch: int = 8, deterministic: bool = False):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch
        self.deterministic = deterministic
        #: Every pending group, in the order of its oldest entry.
        self._groups: list[_Group] = []
        #: The group each key's next arrival joins (unsealed groups only).
        self._open: dict[tuple, _Group] = {}
        self._size = 0

    def __len__(self) -> int:
        """Pending entries, across every group."""
        return self._size

    def add(self, entry) -> None:
        """Queue one pending entry in its key's open group."""
        request = entry.request
        key = (request.network, request.thresholds_key())
        group = self._open.get(key)
        if group is None:
            group = self._open[key] = _Group(key)
            self._groups.append(group)
        group.entries.append(entry)
        self._size += 1
        if len(group.entries) >= self.max_batch:
            self._seal(group, "full")

    def _seal(self, group: _Group, reason: str) -> None:
        group.sealed = reason
        del self._open[group.key]

    def take(self) -> Batch | None:
        """The oldest group a free worker may take, or None.

        Any group qualifies, except in deterministic mode, where only a
        sealed one does (full, or released by :meth:`flush`).
        """
        for index, group in enumerate(self._groups):
            if group.sealed is None and self.deterministic:
                continue
            del self._groups[index]
            self._size -= len(group.entries)
            if group.sealed is None:
                self._seal(group, "idle")
            return Batch(
                network=group.key[0], thresholds_key=group.key[1],
                entries=group.entries, reason=group.sealed,
            )
        return None

    def flush(self) -> None:
        """Seal every open group, so a worker may take it as it stands."""
        for group in list(self._open.values()):
            self._seal(group, "flush")
