"""Sharded serving tier: consistent-hash router over shard processes.

:class:`ShardedService` presents the same submission surface as the
in-process :class:`~repro.serve.service.InferenceService` (``start`` /
``try_submit`` / ``submit`` / ``drain`` / ``stop``) but fans work out to
N :mod:`repro.serve.shard` worker processes:

1. **Routing.** Requests are consistent-hashed on their
   ``(network, thresholds)`` key (:func:`repro.serve.hashring.
   request_key`), so every threshold configuration is owned by one
   shard whose :class:`~repro.nn.engine.IncrementalForwardEngine` keeps
   that configuration's layer prefixes hot — the PR-2 prefix-reuse
   property, preserved per shard instead of diluted across all of them.
   Aggregate engine-cache capacity therefore scales with the shard
   count while each process stays inside its own
   ``CNVLUTIN_ENGINE_CACHE_MB`` budget.
2. **Shared weights.** The router builds the calibrated stores once,
   publishes them into one :class:`~repro.nn.shm.SharedWeightArena`,
   and shards attach zero-copy read-only views — adding a shard adds
   engine-cache pages, not weight copies.
3. **Backpressure.** Each shard connection has a bounded in-flight
   *window* (semaphore) plus a bounded waiting *backlog*; a request
   arriving past the backlog is shed at the router (HTTP-429 style),
   mirroring the single-process queue-limit contract.
4. **Failover.** A forward that fails — dead socket, timeout, an
   injected ``shard:forward`` fault, or a shard-side ``fail`` envelope —
   retries under the service :class:`~repro.reliability.RetryPolicy`
   against the next replica in the ring's preference order.  A dead
   shard is removed from the ring (only *its* keys remap — consistent
   hashing's point), its process is respawned under
   :class:`~repro.reliability.RespawnPolicy` backoff, and the new
   generation re-joins the ring once it answers a ping.

5. **Self-healing integrity.** A shard that reports corruption — a
   failing arena CRC recheck, a persistent ABFT kernel failure, or a
   wrong answer to the router's *canary* probe (a golden request with
   known response bytes, swept across shards on
   ``canary_interval_s``) — is **quarantined**: pulled from the ring,
   its process terminated, and a respawn scheduled through the normal
   :class:`~repro.reliability.RespawnPolicy` path.  Before respawning,
   the router verifies its *own* arena view; if the shared pages really
   are corrupt it **republishes** a fresh arena from the calibrated
   stores so the new generation (and later respawns) attach clean
   weights.  ``start()`` also sweeps stale ``cnvlutin-*`` shared-memory
   segments left by dead processes (:func:`repro.nn.shm.
   sweep_stale_arenas`).

Observability: ``router.requests`` / ``router.forwarded`` (+
``router.forwarded.shard<i>``) / ``router.shed`` / ``router.retries`` /
``router.failovers`` / ``router.deaths`` / ``router.respawns``
counters, a ``router.live_shards`` gauge, a ``router.forward_ms``
histogram, and a ``router.forward`` span per attempt;
:meth:`ShardedService.collect_obs` pulls every shard's metrics snapshot
and trace buffer into the router process, so one Chrome trace shows
router and shard time across pids on a single timeline.  Integrity adds
``integrity.detected.<crc|abft|canary>``, ``integrity.quarantines`` (+
``.<reason>``), ``integrity.republishes``, ``integrity.canary.probes``
and ``integrity.arena.swept`` — all counted router-side, because a
quarantined shard's own counters die with its process.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.experiments.context import ExperimentContext
from repro.nn.shm import SharedWeightArena, sweep_stale_arenas
from repro.obs.timeseries import TelemetryPlane
from repro.reliability import (
    FaultInjector,
    InjectedFault,
    RespawnPolicy,
    RetryPolicy,
)
from repro.serve.hashring import HashRing, request_key
from repro.serve.models import ModelRepository, direct_response
from repro.serve.requests import (
    ServeRequest,
    ServeResponse,
    canonical_response_bytes,
)
from repro.serve.service import ServeConfig
from repro.serve.shard import ShardSpec, run_shard

__all__ = ["ShardTierConfig", "ShardedService", "ShardDead"]


class ShardDead(ConnectionError):
    """The shard connection died with requests in flight."""


@dataclass(frozen=True)
class ShardTierConfig:
    """Knobs of the sharded tier (the router side; per-shard service
    behaviour lives in the shared :class:`ServeConfig`)."""

    shards: int = 2
    vnodes: int = 64
    window: int = 8
    backlog: int = 64
    forward_timeout_s: float = 60.0
    connect_timeout_s: float = 15.0
    start_method: str = "fork"
    engine_cache_mb: float | None = None
    trace: bool = False
    faults: str | None = None
    fault_state: str | None = None
    fault_seed: int = 0
    #: ``CNVLUTIN_INTEGRITY`` value pushed into every shard (None =
    #: inherit the environment).
    integrity: str | None = None
    integrity_recheck_s: float | None = None
    #: Seconds between router canary sweeps (golden request with known
    #: response bytes probed on every live shard); None disables the
    #: background loop — ``run_canary()`` can still be called directly.
    canary_interval_s: float | None = None
    #: Seconds between each shard's unsolicited telemetry pushes of
    #: metric deltas over the control socket (None = no streaming; the
    #: stop-time ``op: obs`` pull remains the only metrics hand-off).
    telemetry_interval_s: float | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.backlog < 0:
            raise ValueError("backlog must be >= 0")


class _ShardClient:
    """One shard's connection: rid-multiplexed futures over a unix socket."""

    def __init__(self, index: int, socket_path: str, window: int):
        self.index = index
        self.socket_path = socket_path
        self.window = asyncio.Semaphore(window)
        self.waiting = 0
        self.alive = False
        self.process: multiprocessing.process.BaseProcess | None = None
        self.generation = 0
        self._rid = 0
        self._pending: dict[int, asyncio.Future] = {}
        self._reader_task: asyncio.Task | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._write_lock = asyncio.Lock()
        self._on_down = None
        self._on_event = None

    async def connect(self, timeout_s: float, on_down, on_event=None) -> None:
        """Dial until the shard answers a ping (it may still be building
        its engines when the socket first appears)."""
        deadline = time.perf_counter() + timeout_s
        last_error: Exception | None = None
        while time.perf_counter() < deadline:
            try:
                reader, writer = await asyncio.open_unix_connection(
                    self.socket_path
                )
            except (ConnectionError, FileNotFoundError, OSError) as exc:
                last_error = exc
                await asyncio.sleep(0.05)
                continue
            self._writer = writer
            self._pending = {}
            self._on_down = on_down
            self._on_event = on_event
            self.alive = True
            self._reader_task = asyncio.create_task(self._read_loop(reader))
            await self.call({"op": "ping"}, timeout_s=timeout_s)
            return
        raise TimeoutError(
            f"shard {self.index} did not come up within {timeout_s}s"
        ) from last_error

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                envelope = json.loads(line)
                if "evt" in envelope:
                    # Unsolicited shard push (e.g. an integrity report);
                    # no rid, never resolves a pending call.
                    if self._on_event is not None:
                        self._on_event(self, envelope)
                    continue
                future = self._pending.pop(envelope.get("rid"), None)
                if future is None or future.done():
                    continue
                if "fail" in envelope:
                    future.set_exception(ShardDead(envelope["fail"]))
                else:
                    future.set_result(envelope)
        except (ConnectionError, OSError, ValueError):
            pass
        finally:
            self._fail_pending("shard connection closed")
            if self.alive:
                self.alive = False
                if self._on_down is not None:
                    self._on_down(self)

    def _fail_pending(self, reason: str) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(ShardDead(reason))

    async def call(self, payload: dict, timeout_s: float) -> dict:
        """Send one envelope and await its reply."""
        if not self.alive or self._writer is None:
            raise ShardDead(f"shard {self.index} is down")
        self._rid += 1
        rid = self._rid
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        line = json.dumps({"rid": rid, **payload}).encode() + b"\n"
        # One finally covers the write and the wait: a call cancelled
        # while queued on the lock or inside drain() must not leave a
        # future that a later _fail_pending fails with nobody awaiting it.
        try:
            try:
                async with self._write_lock:
                    self._writer.write(line)
                    await self._writer.drain()
            except (ConnectionError, OSError) as exc:
                raise ShardDead(str(exc))
            return await asyncio.wait_for(future, timeout_s)
        finally:
            self._pending.pop(rid, None)

    async def close(self) -> None:
        self.alive = False
        self._on_down = None
        self._on_event = None
        if self._reader_task is not None:
            self._reader_task.cancel()
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:
                pass
        self._fail_pending("client closed")


class ShardedService:
    """The sharded serving front end (duck-types ``InferenceService``)."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        tier: ShardTierConfig | None = None,
        policy: RetryPolicy | None = None,
        respawn: RespawnPolicy | None = None,
        injector: FaultInjector | None = None,
        cache_dir=None,
    ):
        self.config = config if config is not None else ServeConfig()
        self.tier = tier if tier is not None else ShardTierConfig()
        self.policy = policy if policy is not None else RetryPolicy(
            max_attempts=3, backoff_base=0.02, backoff_max=0.25,
            seed=self.config.seed,
        )
        self.respawn = respawn if respawn is not None else RespawnPolicy(
            seed=self.config.seed
        )
        self.injector = injector if injector is not None else FaultInjector.from_env()
        self.cache_dir = cache_dir
        # Router-side context: builds the calibrated stores once (from the
        # artifact cache) for publication; also answers request validation
        # (known networks, probe-image count) without a socket round trip.
        self.context = ExperimentContext(self.config.paper_config(cache_dir))
        self.repo = ModelRepository(context=self.context)
        self.arena: SharedWeightArena | None = None
        self.ring: HashRing | None = None
        self._clients: dict[int, _ShardClient] = {}
        self._respawns: dict[int, int] = {}
        self._socket_dir: str | None = None
        self._pending: set[asyncio.Future] = set()
        self._background: set[asyncio.Task] = set()
        self._mp = multiprocessing.get_context(self.tier.start_method)
        self._stopping = False
        self._quarantined: set[int] = set()
        self._golden: dict[str, bytes] = {}
        # Always present (ingestion is cheap and only happens when
        # shards actually push): the windowed aggregation of streamed
        # shard deltas the admin endpoint reads.
        self.telemetry = TelemetryPlane()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self.ring is not None

    def shard_pids(self) -> dict[int, int]:
        """Live shard index → pid (for the benchmark's PSS accounting)."""
        return {
            index: client.process.pid
            for index, client in self._clients.items()
            if client.alive and client.process is not None
        }

    def _spec(self, index: int) -> ShardSpec:
        return ShardSpec(
            index=index,
            socket_path=f"{self._socket_dir}/shard{index}.sock",
            config=self.config,
            manifest=self.arena.manifest,
            cache_dir=str(self.cache_dir) if self.cache_dir else None,
            engine_cache_mb=self.tier.engine_cache_mb,
            trace=self.tier.trace,
            faults=self.tier.faults,
            fault_state=self.tier.fault_state,
            fault_seed=self.tier.fault_seed,
            integrity=self.tier.integrity,
            integrity_recheck_s=self.tier.integrity_recheck_s,
            telemetry_interval_s=self.tier.telemetry_interval_s,
        )

    def _spawn(self, index: int) -> _ShardClient:
        spec = self._spec(index)
        client = _ShardClient(index, spec.socket_path, self.tier.window)
        client.process = self._mp.Process(
            target=run_shard, args=(spec,), daemon=True,
            name=f"cnvlutin-shard{index}",
        )
        client.process.start()
        return client

    async def start(self) -> None:
        if self.started:
            raise RuntimeError("service already started")
        sweep_stale_arenas()
        stores = {
            name: self.repo.entry(name).store for name in self.repo.networks
        }
        self.arena = SharedWeightArena.publish(stores)
        self._socket_dir = tempfile.mkdtemp(prefix="cnvlutin-shards-")
        clients = [self._spawn(index) for index in range(self.tier.shards)]
        await asyncio.gather(
            *(
                client.connect(
                    self.tier.connect_timeout_s, self._shard_down,
                    self._shard_event,
                )
                for client in clients
            )
        )
        self._clients = {client.index: client for client in clients}
        self.ring = HashRing(list(self._clients), vnodes=self.tier.vnodes)
        obs.gauge_set("router.live_shards", len(self._clients))
        if self.tier.canary_interval_s is not None:
            task = asyncio.create_task(self._canary_loop())
            self._background.add(task)
            task.add_done_callback(self._background.discard)

    async def drain(self) -> None:
        """Wait for every accepted request to resolve."""
        while True:
            pending = [f for f in self._pending if not f.done()]
            if not pending:
                break
            await asyncio.wait(pending)

    async def stop(self) -> None:
        if not self.started:
            return
        await self.drain()
        self._stopping = True
        for task in list(self._background):
            task.cancel()
        await asyncio.gather(*self._background, return_exceptions=True)
        self.collected = await self.collect_obs()
        # Streamed telemetry reached only the windowed plane during the
        # run; fold each shard's cumulative into the global registry now
        # (shards reset on every push, so the op:obs pull above shipped
        # only the residual since their last push — totals stay exact).
        self.telemetry.fold_into(obs.get_metrics())
        for client in self._clients.values():
            if client.alive:
                try:
                    await client.call({"op": "shutdown"}, timeout_s=5.0)
                except (ShardDead, TimeoutError, asyncio.TimeoutError):
                    pass
            await client.close()
        for client in self._clients.values():
            process = client.process
            if process is None:
                continue
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self.ring = None
        self._clients = {}
        if self.arena is not None:
            self.arena.unlink()
            self.arena.close()
            self.arena = None
        if self._socket_dir:
            shutil.rmtree(self._socket_dir, ignore_errors=True)
            self._socket_dir = None

    # ------------------------------------------------------------------
    # submission (the InferenceService duck type)
    # ------------------------------------------------------------------
    def try_submit(self, request: ServeRequest) -> asyncio.Future | ServeResponse:
        if not self.started:
            raise RuntimeError("service is not started")
        obs.counter_add("router.requests")
        # Validated here, before routing: a bad request answers as a
        # 500-style validation error at the router, never reaching (let
        # alone crashing) a shard process.
        error = self.repo.admission_error(request)
        loop = asyncio.get_running_loop()
        if error is not None:
            obs.counter_add("router.errors")
            future = loop.create_future()
            future.set_result(
                ServeResponse(
                    id=request.id, status="error", kind=request.kind,
                    network=request.network, payload={"error": error},
                )
            )
            return future
        key = request_key(request.network, request.thresholds_key())
        try:
            owner = self.ring.owner(key)
        except LookupError:
            owner = None
        if owner is not None and (
            self._clients[owner].waiting >= self.tier.backlog
        ):
            obs.counter_add("router.shed")
            return ServeResponse(
                id=request.id, status="shed", kind=request.kind,
                network=request.network,
                payload={
                    "error": "shard backlog full",
                    "backlog": self.tier.backlog,
                },
            )
        future = loop.create_future()
        task = asyncio.create_task(self._forward(request, key, future))
        self._background.add(task)
        task.add_done_callback(self._background.discard)
        self._pending.add(future)
        future.add_done_callback(self._pending.discard)
        return future

    async def submit(self, request: ServeRequest) -> ServeResponse:
        outcome = self.try_submit(request)
        if isinstance(outcome, ServeResponse):
            return outcome
        return await outcome

    # ------------------------------------------------------------------
    # forwarding + failover
    # ------------------------------------------------------------------
    def _live_preference(self, key: str) -> list[int]:
        if self.ring is None or len(self.ring) == 0:
            return []
        return [
            index
            for index in self.ring.preference(key, limit=len(self.ring))
            if self._clients[index].alive
        ]

    async def _forward(
        self, request: ServeRequest, key: str, future: asyncio.Future
    ) -> None:
        payload = request.to_payload()
        attempt = 0
        label = f"shard/{request.network}"
        while True:
            preference = self._live_preference(key)
            if not preference:
                # Every shard may be mid-quarantine/respawn; retry on
                # the same budget as a failed forward so a healing tier
                # absorbs the request instead of erroring it.
                if not self.policy.retries_left(attempt):
                    self._finish(
                        future, request, "error",
                        {"error": "no live shards own this key"},
                    )
                    return
                obs.counter_add("router.retries")
                delay = max(self.policy.delay(label, attempt), 0.05)
                attempt += 1
                await asyncio.sleep(delay)
                continue
            target = preference[attempt % len(preference)]
            client = self._clients[target]
            started = time.perf_counter()
            try:
                self.injector.fire("shard:forward", trial=attempt)
                client.waiting += 1
                try:
                    await client.window.acquire()
                finally:
                    client.waiting -= 1
                try:
                    with obs.span(
                        "router.forward", cat="serve",
                        shard=target, attempt=attempt, req=request.id,
                    ):
                        envelope = await client.call(
                            {"req": payload},
                            timeout_s=self.tier.forward_timeout_s,
                        )
                finally:
                    client.window.release()
            except (
                ShardDead, InjectedFault, TimeoutError, asyncio.TimeoutError,
            ) as exc:
                obs.counter_add("router.retries")
                # A retry that will land on a different shard is a
                # failover (the ring successor takes the key's traffic).
                succ = self._live_preference(key)
                if succ and succ[(attempt + 1) % len(succ)] != target:
                    obs.counter_add("router.failovers")
                if not self.policy.retries_left(attempt):
                    self._finish(
                        future, request, "error",
                        {
                            "error": "all shard attempts failed: "
                            f"{type(exc).__name__}: {exc}"
                        },
                    )
                    return
                delay = self.policy.delay(label, attempt)
                attempt += 1
                if delay > 0:
                    await asyncio.sleep(delay)
                continue
            obs.observe(
                "router.forward_ms", (time.perf_counter() - started) * 1e3
            )
            obs.counter_add("router.forwarded")
            obs.counter_add(f"router.forwarded.shard{target}")
            if not future.done():
                future.set_result(ServeResponse.from_payload(envelope["resp"]))
            return

    def _finish(
        self, future: asyncio.Future, request: ServeRequest,
        status: str, payload: dict,
    ) -> None:
        obs.counter_add("router.errors")
        if not future.done():
            future.set_result(
                ServeResponse(
                    id=request.id, status=status, kind=request.kind,
                    network=request.network, payload=payload,
                )
            )

    # ------------------------------------------------------------------
    # death + respawn
    # ------------------------------------------------------------------
    def _shard_down(self, client: _ShardClient) -> None:
        """Reader-task callback: the shard's connection died."""
        if self._stopping or self.ring is None:
            return
        obs.counter_add("router.deaths")
        if client.index in self.ring:
            # Consistent hashing: removing this node remaps only the
            # keys it owned; every other shard's cache stays hot.
            self.ring.remove(client.index)
        obs.gauge_set("router.live_shards", len(self.ring))
        task = asyncio.create_task(self._respawn(client.index))
        self._background.add(task)
        task.add_done_callback(self._background.discard)

    async def _respawn(self, index: int) -> None:
        count = self._respawns.get(index, 0)
        if not self.respawn.allows(count):
            return
        self._respawns[index] = count + 1
        delay = self.respawn.delay(f"shard{index}", count)
        if delay > 0:
            await asyncio.sleep(delay)
        old = self._clients.get(index)
        if old is not None and old.process is not None:
            old.process.join(timeout=1.0)
        client = self._spawn(index)
        client.generation = (old.generation if old else 0) + 1
        try:
            await client.connect(
                self.tier.connect_timeout_s, self._shard_down,
                self._shard_event,
            )
        except (TimeoutError, OSError):
            await client.close()
            task = asyncio.create_task(self._respawn(index))
            self._background.add(task)
            task.add_done_callback(self._background.discard)
            return
        self._clients[index] = client
        if self.ring is not None and index not in self.ring:
            self.ring.add(index)
            obs.gauge_set("router.live_shards", len(self.ring))
        obs.counter_add("router.respawns")

    # ------------------------------------------------------------------
    # integrity: quarantine, republish, canary
    # ------------------------------------------------------------------
    def _shard_event(self, client: _ShardClient, envelope: dict) -> None:
        """Reader-loop callback: a shard pushed an ``evt`` envelope."""
        if self._stopping:
            return
        evt = envelope.get("evt")
        if evt == "telemetry":
            # Streamed metric delta: aggregate into the windowed plane
            # only — never straight into the global registry, which gets
            # the plane's fold exactly once at stop (no double counting).
            self.telemetry.ingest(
                f"shard{envelope.get('shard', client.index)}",
                envelope.get("metrics") or {},
                seq=envelope.get("seq"),
            )
            return
        if evt != "integrity":
            return
        reason = envelope.get("reason", "unknown")
        obs.counter_add(f"integrity.detected.{reason}")
        task = asyncio.create_task(self._quarantine(client, reason))
        self._background.add(task)
        task.add_done_callback(self._background.discard)

    async def _quarantine(self, client: _ShardClient, reason: str) -> None:
        """Detect → quarantine → republish (if corrupt) → respawn.

        The shard already poisoned itself (it fails every request fast),
        so the router's job is to take it out of the ring, make sure the
        shared weights the *next* generation attaches are clean, and
        hand the index to the normal respawn path.
        """
        if self._stopping or self.ring is None:
            return
        index = client.index
        if index in self._quarantined or self._clients.get(index) is not client:
            return  # stale event for an already-replaced generation
        self._quarantined.add(index)
        obs.counter_add("integrity.quarantines")
        obs.counter_add(f"integrity.quarantines.{reason}")
        if index in self.ring:
            self.ring.remove(index)
        obs.gauge_set("router.live_shards", len(self.ring))
        self._republish_if_corrupt()
        # close() clears the on_down callback first, so tearing the
        # connection down here cannot double-schedule a respawn.
        await client.close()
        process = client.process
        if process is not None and process.is_alive():
            process.terminate()
            await asyncio.to_thread(process.join, 5.0)
        self._quarantined.discard(index)
        await self._respawn(index)

    def _republish_if_corrupt(self) -> None:
        """Republish the arena from the calibrated stores — but only if
        the router's own view really fails CRC.  Several shards
        reporting one stale flip must trigger one republish, not one
        per report; and an ABFT-only transient (arena clean) must not
        churn the arena at all."""
        if self.arena is None or not self.arena.verify():
            return
        stores = {
            name: self.repo.entry(name).store for name in self.repo.networks
        }
        old, self.arena = self.arena, SharedWeightArena.publish(stores)
        old.unlink()
        old.close()
        obs.counter_add("integrity.republishes")

    def _canary_request(self, network: str) -> ServeRequest:
        return ServeRequest(
            id=f"canary:{network}", kind="classify", network=network,
            image_index=0,
        )

    async def run_canary(self) -> int:
        """Probe every live shard with a golden request per network and
        quarantine any shard whose canonical response bytes diverge from
        the router's own direct inference.  Returns probes sent."""
        probes = 0
        for network in self.repo.networks:
            golden = self._golden.get(network)
            if golden is None:
                request = self._canary_request(network)
                golden = canonical_response_bytes(
                    await asyncio.to_thread(
                        direct_response, self.repo, request
                    )
                )
                self._golden[network] = golden
            payload = self._canary_request(network).to_payload()
            for client in list(self._clients.values()):
                if not client.alive or client.index in self._quarantined:
                    continue
                try:
                    envelope = await client.call(
                        {"req": payload},
                        timeout_s=self.tier.forward_timeout_s,
                    )
                except (ShardDead, TimeoutError, asyncio.TimeoutError):
                    continue  # dead/poisoned shards heal via other paths
                probes += 1
                obs.counter_add("integrity.canary.probes")
                response = ServeResponse.from_payload(envelope["resp"])
                if canonical_response_bytes(response) != golden:
                    obs.counter_add("integrity.detected.canary")
                    await self._quarantine(client, "canary")
        return probes

    async def _canary_loop(self) -> None:
        while not self._stopping:
            await asyncio.sleep(self.tier.canary_interval_s)
            try:
                await self.run_canary()
            except asyncio.CancelledError:
                raise
            except Exception:
                obs.counter_add("integrity.canary.errors")

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    async def collect_obs(self) -> int:
        """Pull every live shard's metrics + trace buffer into this
        process (snapshot-and-reset on the shard side).  Returns the
        number of shards that answered."""
        answered = 0
        for client in list(self._clients.values()):
            if not client.alive:
                continue
            try:
                envelope = await client.call({"op": "obs"}, timeout_s=10.0)
            except (ShardDead, TimeoutError, asyncio.TimeoutError):
                continue
            obs.merge_snapshot(envelope.get("metrics") or {})
            obs.extend_events(envelope.get("events") or [])
            answered += 1
        return answered
