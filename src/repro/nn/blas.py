"""The process's OpenBLAS thread count: the one module that reads or sets it.

numpy runs the conv GEMMs and FC matvecs on OpenBLAS, whose thread count
is native, process-global state.  A serving front end runs several
compute streams at once (an ``InferenceService``'s workers, or a sharded
tier's shards × workers), and OpenBLAS's helper threads spin on CPUs that
another stream needs.  So each front end shares out the threads once::

    count = max(1, ceiling // streams)

``ceiling`` is the count OpenBLAS started with.  It already reflects
``OPENBLAS_NUM_THREADS`` and the CPU affinity mask, so a user's cap
still holds.  Offline work starts no front end and keeps that count.

The contract: **canonical bytes are the bytes computed under the
process's count.**  The summation order of a multi-threaded GEMM shows
in the last ulp, so the count is one decision per process, made before
the front end computes anything.

* :func:`decide` applies on its first call in a process and records the
  count.  Every later call returns the recorded count unchanged.
* :func:`install` always applies a count and records it.  A shard calls
  it with its router's count, before it builds anything, so a router and
  its shards compute under one count.
* Nothing restores the count when a service stops.  A reference
  computed in the same process afterwards (the benchmark's output check,
  ``repro-serve loadgen --verify-bytes``) must see the count the service
  ran under.

The record is module-level because the state it mirrors is: one native
count per process.  numpy exposes no setter, so the OpenBLAS numpy loaded
is found by ctypes, probing the symbol names threadpoolctl probes.  Under
any other BLAS every call is a no-op that returns ``None``.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Callable, NamedTuple

from repro import obs

__all__ = ["threads", "decide", "install"]

#: ``(prefix, suffix)`` of the OpenBLAS thread-count symbols, in probe
#: order: numpy's wheels ship scipy-openblas built with 64-bit integers.
_SYMBOLS = (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", ""))

#: The count this process decided or installed (None: not yet).
_decided: int | None = None


class _Calls(NamedTuple):
    get: Callable[[], int]
    set: Callable[[int], None]


@functools.cache
def _openblas() -> _Calls | None:
    """numpy's OpenBLAS thread-count calls, probed on first use."""
    try:
        from numpy._core import _multiarray_umath  # numpy >= 2
    except ImportError:  # pragma: no cover - numpy 1.x
        from numpy.core import _multiarray_umath
    try:
        # dlsym on the extension's handle also searches the libraries
        # it loaded, which is where numpy's OpenBLAS lives.
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:  # pragma: no cover - static or unusual builds
        return None
    for prefix, suffix in _SYMBOLS:
        try:
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return _Calls(get, put)
    return None


def threads() -> int | None:
    """The current OpenBLAS thread count (None: no OpenBLAS found)."""
    calls = _openblas()
    return None if calls is None else calls.get()


def decide(streams: int) -> int | None:
    """Share the threads OpenBLAS started with among ``streams``
    concurrent compute streams, once per process.

    The first call sets ``max(1, ceiling // streams)`` and records it.
    Every later call, and any call after :func:`install`, returns the
    recorded count and changes nothing.
    """
    if _decided is not None:
        return _decided
    calls = _openblas()
    if calls is None:
        return None
    return _apply(calls, max(1, calls.get() // streams))


def install(count: int | None) -> int | None:
    """Apply ``count`` and record it as this process's decision.

    A shard takes its router's count this way.  ``None`` (the router
    found no OpenBLAS) changes nothing.
    """
    calls = _openblas()
    if calls is None or count is None:
        return None
    return _apply(calls, count)


def _apply(calls: _Calls, count: int) -> int:
    global _decided
    calls.set(count)
    _decided = count
    obs.gauge_set("blas.threads", count)
    return count
