"""Read-only shared-memory arena for calibrated network weights.

N serving shards must not carry N private copies of every calibrated
:class:`~repro.nn.inference.WeightStore`.  The router (the *owner*)
packs all weight and bias arrays of every network into **one**
``multiprocessing.shared_memory`` block and hands shards a JSON-safe
*manifest* (block name + per-array offset/shape/dtype).  Each shard
*attaches* by name and rebuilds its stores as zero-copy, read-only numpy
views over the same physical pages — the forward path never writes
weights, so one set of pages serves every shard regardless of the
per-shard ``CNVLUTIN_ENGINE_CACHE_MB`` activation-cache budget.  The
owner computes on the same kind of views: :meth:`SharedWeightArena.
publish` returns view stores over the block it just wrote, so once the
owner rebinds its networks to them the arena is the only copy of the
weights, and processes forked from the owner inherit no private one.

Layout and bit-identity
-----------------------
Every array is copied byte-exact into the block at a 64-byte-aligned
offset (matching numpy's own allocation alignment, so BLAS sees the
same alignment class it would on a private copy); calibration ``shifts``
are scalars/small vectors and travel inside the manifest as plain JSON.
An attached view therefore computes bit-identically to the private store
it was published from — the sharded differential tests assert exactly
that, end to end through the serving tier.

Integrity (CRC32 guard)
-----------------------
The manifest carries a publish-time CRC32 per packed array.
:meth:`attach` verifies every segment before handing out views (a shard
never starts on a corrupt arena), and :meth:`SharedWeightArena.verify`
re-checks the live block on demand — the shard loop calls it between
batches on the ``CNVLUTIN_INTEGRITY_RECHECK_S`` deadline, and the router
calls it before deciding whether a quarantine needs a republish.  The
CRC is the *primary* defense against weight bit flips: call-time ABFT
checksums (:mod:`repro.reliability.integrity`) cannot see corruption
that precedes both sides of their invariant, but a flipped bit in the
shared pages can never match the publish-time checksum.

Ownership / cleanup protocol (documented in DESIGN.md)
------------------------------------------------------
* The **owner** creates the block, publishes, and is the only process
  that ever calls :meth:`SharedWeightArena.unlink` (at service stop) —
  unlink-by-name works even while attachers hold views.
* **Attachers** never unlink.  CPython 3.11 registers *attached* blocks
  with the ``resource_tracker`` too, which would unlink the block when
  the first shard exits; :meth:`attach` therefore unregisters the
  attachment immediately (the documented workaround until the 3.13
  ``track=False`` parameter).
* Every view is carved from one ``np.frombuffer`` array over the whole
  block (:func:`_view_stores`, shared by publish and attach).  That
  array holds a buffer export on the mapping, so ``close()`` cannot
  unmap the block under a live view (``np.ndarray(buffer=shm.buf)``
  keeps only the mmap object, which ``close()`` then unmaps: the next
  read of the view segfaults).  While views live, ``close()`` leaves
  the mapping in place; a finalizer on the export releases the handle
  when the last view dies, so a dropped arena's handle never runs its
  own ``__del__`` against an exported buffer.
* Blocks are named ``cnvlutin-<owner pid>-<token>`` and every owner
  arena is registered for ``atexit`` unlink, so a router that exits
  without reaching ``stop()`` still cleans up.  A router killed with
  ``SIGKILL`` cannot: :func:`sweep_stale_arenas` scans ``/dev/shm`` for
  ``cnvlutin-*`` blocks whose owner pid is gone and unlinks them — the
  sharded tier runs the sweep at every start.
"""

from __future__ import annotations

import atexit
import os
import secrets
import weakref
import zlib
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import numpy as np

from repro.nn.inference import WeightStore
from repro.reliability.integrity import IntegrityError

__all__ = [
    "SharedWeightArena",
    "sweep_stale_arenas",
    "process_pss_kb",
    "process_rss_kb",
    "ARENA_PREFIX",
]

#: Arena offsets are rounded up to this; numpy allocates 64-byte-aligned
#: buffers, and keeping the same alignment keeps BLAS code paths (and
#: therefore bits) identical between private and shared stores.
ALIGNMENT = 64

#: Shared blocks are named ``<prefix><owner pid>-<token>`` so the stale
#: sweeper can tell whose arena a leftover ``/dev/shm`` entry belongs to.
ARENA_PREFIX = "cnvlutin-"


def _aligned(offset: int) -> int:
    return (offset + ALIGNMENT - 1) & ~(ALIGNMENT - 1)


def _new_block(size: int) -> shared_memory.SharedMemory:
    """A fresh shared block under the pid-stamped naming scheme."""
    while True:
        name = f"{ARENA_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
        try:
            return shared_memory.SharedMemory(
                name=name, create=True, size=size
            )
        except FileExistsError:  # pragma: no cover - 32-bit token collision
            continue


#: Owner arenas still alive at interpreter exit get their name unlinked
#: (idempotent with an explicit ``unlink()`` — FileNotFoundError is
#: swallowed there).  A WeakSet so an arena the owner already dropped
#: does not have its lifetime extended to process exit.
_OWNED_ARENAS: "weakref.WeakSet[SharedWeightArena]" = weakref.WeakSet()


@atexit.register
def _unlink_owned_arenas() -> None:  # pragma: no cover - exit path
    for arena in list(_OWNED_ARENAS):
        try:
            arena.unlink()
        except Exception:
            pass


def _shift_to_json(value):
    return value.tolist() if isinstance(value, np.ndarray) else float(value)


def _shift_from_json(value):
    return np.asarray(value) if isinstance(value, list) else float(value)


def _view_stores(
    shm: shared_memory.SharedMemory, manifest: dict
) -> dict[str, WeightStore]:
    """Read-only view stores over every segment ``manifest`` names.

    The one way arena views are built (publish and attach both call it).
    Every view is carved from one ``np.frombuffer`` array over the whole
    block; the memoryview that array holds exports the mapping, so no
    ``close()`` can unmap the block while a view is alive.  A finalizer
    on that memoryview releases ``shm`` when the last view dies: it
    keeps the handle alive until then, so the handle's ``__del__`` never
    meets an exported buffer.
    """
    block = np.frombuffer(shm.buf, dtype=np.uint8)
    weakref.finalize(block.base, shm.close).atexit = False
    stores: dict[str, WeightStore] = {}
    for network, entry in manifest["networks"].items():
        sections: dict[str, dict[str, np.ndarray]] = {}
        for section in ("weights", "biases"):
            arrays = {}
            for layer, meta in entry[section].items():
                view = np.ndarray(
                    tuple(meta["shape"]),
                    dtype=np.dtype(meta["dtype"]),
                    buffer=block,
                    offset=meta["offset"],
                )
                view.flags.writeable = False
                arrays[layer] = view
            sections[section] = arrays
        stores[network] = WeightStore(
            weights=sections["weights"],
            biases=sections["biases"],
            shifts={
                layer: _shift_from_json(value)
                for layer, value in entry["shifts"].items()
            },
        )
    return stores


@dataclass(eq=False)  # identity hash: arenas live in a WeakSet for atexit
class SharedWeightArena:
    """One shared block holding every published array, plus its manifest."""

    shm: shared_memory.SharedMemory
    manifest: dict
    stores: dict[str, WeightStore]
    owner: bool

    # ------------------------------------------------------------------
    # publish (owner side)
    # ------------------------------------------------------------------
    @classmethod
    def publish(cls, stores: dict[str, WeightStore]) -> "SharedWeightArena":
        """Pack the arrays of every store into one new shared block.

        Returns an arena whose ``manifest`` is JSON-safe (what a shard
        spec carries) and whose ``stores`` are read-only views into the
        block just written, built as :meth:`attach` builds them.  The
        owner rebinds its networks to those views and drops the private
        stores, so the block is the only copy of the weights.  The
        CRC32s are taken while the block is written: the views need no
        second pass.
        """
        plan: list[tuple[str, str, str, np.ndarray, int]] = []
        offset = 0
        for network in sorted(stores):
            store = stores[network]
            for section in ("weights", "biases"):
                arrays = getattr(store, section)
                for layer in sorted(arrays):
                    arr = np.ascontiguousarray(arrays[layer])
                    offset = _aligned(offset)
                    plan.append((network, section, layer, arr, offset))
                    offset += arr.nbytes
        shm = _new_block(max(offset, 1))
        networks: dict[str, dict] = {}
        for network, section, layer, arr, start in plan:
            np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=start
            )[...] = arr
            entry = networks.setdefault(
                network, {"weights": {}, "biases": {}, "shifts": {}}
            )
            entry[section][layer] = {
                "offset": start,
                "shape": list(arr.shape),
                "dtype": arr.dtype.str,
                # Publish-time checksum of the packed bytes: the arena's
                # ground truth, against which attach() and verify() (and
                # through them the shard recheck loop) compare.
                "crc32": zlib.crc32(shm.buf[start : start + arr.nbytes]),
            }
        for network, store in stores.items():
            entry = networks.setdefault(
                network, {"weights": {}, "biases": {}, "shifts": {}}
            )
            entry["shifts"] = {
                layer: _shift_to_json(value)
                for layer, value in store.shifts.items()
            }
        manifest = {"shm": shm.name, "bytes": offset, "networks": networks}
        arena = cls(
            shm=shm, manifest=manifest, stores=_view_stores(shm, manifest),
            owner=True,
        )
        _OWNED_ARENAS.add(arena)
        return arena

    # ------------------------------------------------------------------
    # attach (shard side)
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, manifest: dict, verify: bool = True) -> "SharedWeightArena":
        """Open the published block and rebuild read-only view stores.

        With ``verify`` (the default) every segment's CRC32 is checked
        against the publish-time manifest before any view is handed out;
        a mismatch raises :class:`IntegrityError` so a shard can never
        start serving from a corrupt arena.
        """
        # CPython 3.11 registers *attachments* with the resource tracker,
        # which would unlink the owner's block when the first attaching
        # process exits (and duplicate unregisters from sibling shards
        # make the shared tracker process log KeyErrors).  Suppress the
        # registration entirely for the attach call — the owner's own
        # registration from publish() remains the single tracked claim.
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=manifest["shm"], create=False)
        finally:
            resource_tracker.register = original_register
        arena = cls(
            shm=shm, manifest=manifest, stores=_view_stores(shm, manifest),
            owner=False,
        )
        if verify:
            corrupt = arena.verify()
            if corrupt:
                arena.close()
                raise IntegrityError(
                    f"arena {manifest['shm']} failed CRC32 verification on "
                    f"attach: {corrupt[:3]}"
                    + (f" (+{len(corrupt) - 3} more)" if len(corrupt) > 3 else "")
                )
        return arena

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def _segments(self):
        """``(path, offset, nbytes, crc32)`` per packed array, in manifest
        order.  Entries published before the CRC guard carry no checksum
        and are skipped (``crc32`` is ``None``)."""
        for network in sorted(self.manifest.get("networks", {})):
            entry = self.manifest["networks"][network]
            for section in ("weights", "biases"):
                for layer in sorted(entry[section]):
                    meta = entry[section][layer]
                    nbytes = int(
                        np.dtype(meta["dtype"]).itemsize
                        * int(np.prod(meta["shape"], dtype=np.int64))
                    )
                    yield (
                        f"{network}/{section}/{layer}",
                        int(meta["offset"]),
                        nbytes,
                        meta.get("crc32"),
                    )

    def verify(self) -> list[str]:
        """Re-checksum every segment of the live block.

        Returns the paths (``network/section/layer``) whose bytes no
        longer match their publish-time CRC32 — empty means clean.  One
        ``integrity.checks.crc`` counter per sweep; the *caller* decides
        what a non-empty result means (shard: escalate to the router;
        router: republish before respawning).
        """
        from repro import obs

        obs.counter_add("integrity.checks.crc")
        corrupt = []
        for path, offset, nbytes, crc in self._segments():
            if crc is None:
                continue
            if zlib.crc32(self.shm.buf[offset : offset + nbytes]) != crc:
                corrupt.append(path)
        return corrupt

    # ------------------------------------------------------------------
    # cleanup
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release this process's handle on the block.

        Views over the block export its mapping, so while one is alive
        the mapping stays (the view remains readable) and the handle is
        released by the finalizer :func:`_view_stores` set, once the
        last view dies.
        """
        try:
            self.shm.close()
        except BufferError:
            pass

    def unlink(self) -> None:
        """Remove the block name (owner only; safe while attached)."""
        if not self.owner:
            raise RuntimeError("only the publishing owner may unlink the arena")
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double stop
            pass


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True


def sweep_stale_arenas(shm_dir: str = "/dev/shm") -> list[str]:
    """Unlink ``cnvlutin-*`` blocks whose owner pid no longer exists.

    The atexit hook covers every orderly exit, but a router killed with
    ``SIGKILL`` (or an OOM kill) leaks its block until reboot — shared
    memory has no owner-died reclamation.  Block names embed the owner
    pid precisely so this sweep can tell a dead owner's leftovers from a
    concurrently running tier's live arena.  Returns the names removed;
    Linux-only (no ``/dev/shm`` elsewhere), silently a no-op otherwise.
    """
    from repro import obs

    removed = []
    root = Path(shm_dir)
    if not root.is_dir():
        return removed
    for path in sorted(root.glob(f"{ARENA_PREFIX}*")):
        rest = path.name[len(ARENA_PREFIX):]
        pid_text, _, token = rest.partition("-")
        if not pid_text.isdigit() or not token:
            continue  # not ours: some other cnvlutin-* artifact
        pid = int(pid_text)
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            path.unlink()
        except FileNotFoundError:  # pragma: no cover - concurrent sweep
            continue
        except OSError:  # pragma: no cover - permission race
            continue
        removed.append(path.name)
        obs.counter_add("integrity.arena.swept")
    return removed


def process_pss_kb(pid: int) -> int | None:
    """Proportional set size of a process in KiB (Linux smaps_rollup).

    PSS attributes shared pages fractionally across their mappers, so
    summing it over the router + shards measures the *actual* incremental
    memory of adding a shard — the number the sharded benchmark's RSS
    criterion gates on.  Returns ``None`` where the kernel interface is
    unavailable.
    """
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except (FileNotFoundError, PermissionError, ProcessLookupError, OSError):
        return None
    return None


def process_rss_kb(pid: int) -> dict[str, int] | None:
    """A process's anonymous and shared resident set in KiB.

    ``{"rss_anon_kb", "rss_shmem_kb"}`` from ``/proc/<pid>/status``: the
    arena's pages count as shared memory in every process that touched
    them, so a process holding a private copy of the weights shows it
    as anonymous memory.  ``None`` where the kernel interface is
    unavailable.
    """
    fields = {"RssAnon:": "rss_anon_kb", "RssShmem:": "rss_shmem_kb"}
    found = {}
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                parts = line.split()
                if parts and parts[0] in fields:
                    found[fields[parts[0]]] = int(parts[1])
    except OSError:
        return None
    return found if len(found) == len(fields) else None
