"""Shard worker process: one engine-owning service behind a unix socket.

A *shard* is a full :class:`~repro.serve.service.InferenceService` —
work-conserving micro-batcher, bounded backlog, worker pool, retry
policy — running in its own process and exchanging length-prefixed
pickle frames over a unix domain socket with the router
(:mod:`repro.serve.router`).  Because the
router consistent-hashes on ``(network, thresholds)``, each shard sees a
stable slice of the key space and its per-process
:class:`~repro.nn.engine.IncrementalForwardEngine` LRU caches hold that
slice hot — N shards give the serving tier N× the aggregate prefix-cache
capacity without multiplying the per-process ``engine_cache_mb``
budget.  The spec carries the shard's whole
:class:`~repro.settings.Settings`, so forked and spawned shards run
under the same knobs whatever environment they inherit, and the
router's BLAS thread count (:mod:`repro.nn.blas`), so every shard
computes the router's canonical bytes.

Weights are **not** copied per shard: the spec carries the router's
shared-memory arena manifest, and the shard attaches read-only zero-copy
views (:func:`repro.nn.engine.attach_shared_weights`) before building
its :class:`~repro.experiments.context.ExperimentContext` with preset
stores — no per-shard weight draw, no per-shard calibration.

Wire protocol: each direction is a stream of frames, a 4-byte
big-endian body length followed by the pickled envelope dict
(:func:`encode_frame` / :func:`read_frame`)::

    → {"rid": 7, "req": {...ServeRequest payload...}}
    ← {"rid": 7, "resp": {...ServeResponse payload, "shard": i...}}
    ← {"rid": 7, "fail": "reason"}          transport-level failure:
                                            the router treats it like a
                                            dead connection and fails
                                            over to a replica
    → {"rid": 8, "op": "ping"}              ← {"rid": 8, "ok": true,
                                               "blas_threads": n, ...}
    → {"rid": 9, "op": "obs"}               ← {"rid": 9, "metrics": ...,
                                               "events": [...]}
    → {"rid": 10, "op": "shutdown"}         ← {"rid": 10, "ok": true}

Requests still cross as :meth:`~repro.serve.requests.ServeRequest.
to_payload` dicts, so :meth:`ServeRequest.from_payload` validates each
one here as it would a client's.  Unpickling is safe because only the
router's user can connect: the sockets live in the router's private
``tempfile.mkdtemp`` directory (mode 0700), and the router already
pickles each shard's :class:`ShardSpec`.  A frame whose body does not
unpickle is dropped; its length prefix keeps the stream in step.

``op: obs`` is the one metrics message: the reply carries the metric
*delta* since the previous one (snapshot-and-reset) and the drained span
buffer.  The router sends it from ``collect_obs()``, which its
``stop()`` calls once before ``shutdown``.

Fault sites: every request envelope passes through
``injector.fire("shard:serve", trial=None)`` — the *global* trial
counter (shared across shards via the ``fault_state`` directory), so
``shard:serve=crash@5`` kills whichever shard handles the 6th sharded
request, mid-run, exactly like an OOM-killed worker.  ``raise`` rules
answer a ``fail`` envelope instead, driving the router's failover path
without losing the process.  ``mem:weights=corrupt@N`` flips one bit of
the attached shared arena as the N-th sharded request arrives — in the
*shared* pages, so every shard computes on the flipped weights until the
router republishes.

Integrity gate: when the ``integrity`` setting is active, every reply is
preceded by an arena CRC recheck whenever the last clean check is older
than ``integrity_recheck_s`` (0 = before *every* reply: since
bit flips persist, no response computed on corrupt weights can then
reach the router, which is the chaos suite's zero-corrupted-responses
guarantee).  A failing recheck — or a persistent
:class:`~repro.reliability.integrity.IntegrityError` surviving the
service's own retry — turns the reply into a ``fail`` envelope, marks
the shard *poisoned* (all later requests fail fast), and pushes an
unsolicited ``{"evt": "integrity", ...}`` envelope so the router can
quarantine, republish, and respawn without waiting for a timeout.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs, settings
from repro.experiments.context import ExperimentContext
from repro.nn import blas, sparse
from repro.nn.engine import attach_shared_weights, attached_arenas
from repro.reliability import FaultInjector, InjectedFault
from repro.serve.models import ModelRepository
from repro.serve.requests import ServeRequest
from repro.serve.service import InferenceService, ServeConfig

__all__ = [
    "BadFrame", "MEM_WEIGHTS_SITE", "ShardSpec", "encode_frame",
    "read_frame", "run_shard",
]

#: Fault site modelling a bit flip in the shared weight arena; the
#: ``corrupt`` action is applied here (the call site owns the buffer).
MEM_WEIGHTS_SITE = "mem:weights"

#: A frame's header: its body's length, 4 bytes big-endian.
_FRAME_HEADER = struct.Struct(">I")


class BadFrame(ValueError):
    """A whole frame arrived, but its body did not unpickle."""


def encode_frame(envelope: dict) -> bytes:
    """One wire frame: the pickled ``envelope`` behind its length."""
    body = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME_HEADER.pack(len(body)) + body


async def read_frame(reader: asyncio.StreamReader):
    """The next frame's envelope, or None once the stream has ended.

    A stream that ends mid-frame ends like a closed one.  A body that
    does not unpickle raises :class:`BadFrame` after the whole frame was
    consumed, so the next read starts on the next header.
    """
    try:
        header = await reader.readexactly(_FRAME_HEADER.size)
        body = await reader.readexactly(_FRAME_HEADER.unpack(header)[0])
    except asyncio.IncompleteReadError:
        return None
    try:
        return pickle.loads(body)
    except Exception as exc:  # malformed pickles raise many types
        raise BadFrame(f"frame body does not unpickle: {exc}") from exc


@dataclass(frozen=True)
class ShardSpec:
    """Everything a shard process needs to build itself.

    Picklable: fork *and* spawn start methods build from the same spec.
    """

    index: int
    socket_path: str
    config: ServeConfig
    settings: settings.Settings
    #: The router's BLAS thread count (None: the router found no OpenBLAS).
    blas_threads: int | None
    manifest: dict = field(default_factory=dict)
    cache_dir: str | None = None


def run_shard(spec: ShardSpec) -> None:
    """Process entry point: install the spec's settings and the router's
    BLAS thread count, then serve.

    The kernel fault injector is rebuilt from the settings with fresh
    counters, so a forked shard does not count on the router's copy.
    The count is installed before anything is built, so the service's
    own ``blas.decide`` keeps it and the shard computes the router's
    canonical bytes.
    """
    settings.install(spec.settings)
    blas.install(spec.blas_threads)
    sparse.rebuild_injector()
    if spec.settings.trace:
        obs.enable_tracing()
    asyncio.run(_shard_main(spec))


def _build_service(spec: ShardSpec) -> InferenceService:
    stores = (
        attach_shared_weights(spec.manifest) if spec.manifest.get("networks")
        else None
    )
    cache_dir = Path(spec.cache_dir) if spec.cache_dir else None
    context = ExperimentContext(
        spec.config.paper_config(cache_dir), stores=stores
    )
    repo = ModelRepository(context=context)
    return InferenceService(config=spec.config, repo=repo)


def _corrupt_arena(arena) -> None:
    """Apply a ``mem:weights`` corrupt action: flip one arena bit.

    Targets an FC weight segment when one exists, else the first weight
    segment.  Conv GEMMs and FC matvecs both multiply the arena's pages
    directly, so the flip both corrupts served bytes *and* is
    CRC-detectable.  The flipped bit is in the exponent byte of a
    float32/float64 word, so the damage is far above any dtype
    tolerance.  Flips land in the *shared* pages: every attached shard
    sees them until the router republishes.
    """
    target = None
    for path, offset, nbytes, _ in arena._segments():
        _, section, layer = path.split("/")
        if section == "weights" and layer.startswith("fc"):
            target = (offset, nbytes)
            break
        if section == "weights" and target is None:
            target = (offset, nbytes)
    if target is None:  # pragma: no cover - empty manifest
        return
    offset, nbytes = target
    # Word-align to the middle of the segment, then hit the high byte of
    # a 4-byte word (sign/exponent bits on little-endian floats).
    position = offset + (nbytes // 2 & ~3) + 3
    arena.shm.buf[position] ^= 0x40
    obs.counter_add("integrity.faults.weight_flips")


async def _shard_main(spec: ShardSpec) -> None:
    service = _build_service(spec)
    injector = FaultInjector.from_settings()
    await service.start()
    stopping = asyncio.Event()
    obs.counter_add("shard.started")
    obs.gauge_set("shard.index", spec.index)

    arenas = attached_arenas()
    arena = arenas[-1] if arenas else None
    integrity_mode, _ = spec.settings.integrity_policy
    recheck_s = spec.settings.integrity_recheck_s
    #: Mutable gate state: monotonic deadline of the next arena CRC
    #: recheck, and the poisoned flag set once corruption is confirmed
    #: (every later reply fails fast until the router replaces us).
    gate = {"next_check": 0.0, "poisoned": None}

    def _recheck_due(now: float) -> bool:
        return (
            arena is not None
            and integrity_mode != "off"
            and now >= gate["next_check"]
        )

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()

        async def reply(payload: dict) -> None:
            frame = encode_frame(payload)
            async with write_lock:
                writer.write(frame)
                await writer.drain()

        async def escalate(rid, reason: str, detail: str) -> None:
            """Fail the reply, poison the shard, and notify the router."""
            first = gate["poisoned"] is None
            gate["poisoned"] = reason
            obs.counter_add("shard.integrity_failures")
            await reply({"rid": rid, "fail": f"integrity: {detail}"})
            if first:
                await reply({
                    "evt": "integrity",
                    "reason": reason,
                    "detail": detail,
                    "shard": spec.index,
                })

        async def serve_one(rid, envelope: dict) -> None:
            try:
                injector.fire("shard:serve", trial=None)
                if (
                    arena is not None
                    and injector.fire(MEM_WEIGHTS_SITE, trial=None) == "corrupt"
                ):
                    _corrupt_arena(arena)
                request = ServeRequest.from_payload(envelope["req"])
            except InjectedFault as exc:
                obs.counter_add("shard.injected_failures")
                await reply({"rid": rid, "fail": str(exc)})
                return
            except (KeyError, TypeError, ValueError) as exc:
                await reply({"rid": rid, "fail": f"bad request: {exc}"})
                return
            if gate["poisoned"] is not None:
                # Confirmed-corrupt shard: fail fast (no compute) while
                # the router's quarantine/respawn is in flight.
                await reply({
                    "rid": rid,
                    "fail": f"integrity: shard poisoned ({gate['poisoned']})",
                })
                return
            obs.counter_add("shard.requests")
            outcome = service.try_submit(request)
            if isinstance(outcome, asyncio.Future):
                if spec.config.deterministic:
                    # Deterministic mode holds partial groups and no
                    # router-driven drain releases them: flush so the
                    # enqueued request (plus anything pipelined before
                    # it) executes now.
                    service.flush()
                response = await outcome
            else:
                response = outcome
            response.shard = spec.index
            # Post-compute, pre-reply integrity gate.  Bit flips in the
            # arena persist, so with a zero recheck deadline any response
            # computed on corrupt weights is guaranteed to see a failing
            # CRC *before* its bytes reach the router.
            now = time.monotonic()
            if _recheck_due(now):
                gate["next_check"] = now + recheck_s
                corrupt = await asyncio.to_thread(arena.verify)
                if corrupt:
                    await escalate(
                        rid, "crc", f"arena CRC mismatch: {corrupt[:3]}"
                    )
                    return
            if response.status == "error" and "IntegrityError" in str(
                response.payload.get("error", "")
            ):
                # The kernel's ABFT check failed on every service-level
                # retry: persistent corruption, not a transient flip.
                await escalate(rid, "abft", "persistent ABFT failure")
                return
            await reply({"rid": rid, "resp": response.to_payload()})

        async def control(rid, op: str) -> None:
            if op == "ping":
                await reply({"rid": rid, "ok": True, "pid": os.getpid(),
                             "shard": spec.index,
                             "blas_threads": blas.threads()})
            elif op == "obs":
                await reply({
                    "rid": rid,
                    "metrics": obs.take_snapshot(),
                    "events": obs.drain_events(),
                })
            elif op == "shutdown":
                await reply({"rid": rid, "ok": True})
                stopping.set()
            else:
                await reply({"rid": rid, "fail": f"unknown op {op!r}"})

        try:
            while True:
                try:
                    envelope = await read_frame(reader)
                    if envelope is None:
                        break
                    rid = envelope["rid"]
                except (BadFrame, KeyError, TypeError):
                    continue  # router never sends malformed frames; drop
                if "op" in envelope:
                    await control(rid, envelope["op"])
                else:
                    task = asyncio.create_task(serve_one(rid, envelope))
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
        except asyncio.CancelledError:  # server teardown mid-read
            pass
        for task in tasks:
            task.cancel()
        writer.close()

    server = await asyncio.start_unix_server(handle, path=spec.socket_path)
    async with server:
        await stopping.wait()
    await service.stop()
