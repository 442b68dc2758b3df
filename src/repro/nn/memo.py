"""One cache of values derived from an array, held while the array lives.

Weight arrays are replaced, never mutated (the repo-wide contract), so a
value derived from one — the ABFT checksum vectors of
:mod:`repro.reliability.integrity`, the non-zero structure of a pruned
filter bank that the weight-sparse backends read — stays valid for the
array's whole lifetime and need only be computed once.  :func:`derived`
keys each value on the array's ``id`` plus a caller-chosen tag and drops
it through a :func:`weakref.finalize` when the array is collected, so a
later array that reuses the ``id`` never sees a stale entry, and an array
with equal values but a different identity gets its own.

Thread safety: the serving workers share filter banks across threads.
Two threads missing on one key both build the value; the first to store
it wins and both return that stored value, so every caller sees one
object per key.
"""

from __future__ import annotations

import weakref
from typing import Callable, Hashable, TypeVar

__all__ = ["derived"]

T = TypeVar("T")

_entries: dict[tuple[int, Hashable], object] = {}


def derived(owner: object, tag: Hashable, build: Callable[[], T]) -> T:
    """``build()``, computed once per live ``owner`` and ``tag``.

    An ``owner`` that takes no weak references is not cached: the value
    is built afresh on every call.
    """
    key = (id(owner), tag)
    value = _entries.get(key)
    if value is None:
        value = build()
        try:
            weakref.finalize(owner, _entries.pop, key, None)
        except TypeError:
            return value
        value = _entries.setdefault(key, value)
    return value
