"""Asyncio inference service: bounded queues, micro-batching, workers.

Request flow::

    try_submit ──► request queue (bounded: full ⇒ explicit 429-style
        │          "shed" response, never unbounded memory)
        ▼
    dispatcher ──► MicroBatcher (cut on max_batch / linger deadline)
        │
        ▼
    batch queue (bounded ⇒ a slow worker backpressures the dispatcher,
        │         which backpressures the request queue, which sheds)
        ▼
    worker pool ──► execute_batch (off the event loop via a thread; numpy
                    releases the GIL in BLAS) with RetryPolicy-governed
                    retries and deterministic backoff

Per-request deadlines are enforced at execution time: a request whose
budget expired while queued gets a ``timeout`` (504) response without
computing.  Deterministic mode (``ServeConfig(deterministic=True)``)
pins everything the schedule could perturb — single worker, no linger
clock, batches cut at exactly every ``max_batch``-th arrival, tail
flushed only by :meth:`InferenceService.drain` — so tests can assert
byte-identical outputs run after run.

:meth:`InferenceService.start` shares this process's BLAS threads among
its workers (:func:`repro.nn.blas.decide`), once per process, before
anything computes.

All latency arithmetic (enqueue stamps, deadlines, reported
``latency_ms``) uses ``time.perf_counter()`` — the *same* clock the
:mod:`repro.obs` spans anchor to their wall epoch — never the event
loop's ``loop.time()``.  One epoch means a request's reported latency
and its trace spans agree, and the load generator's percentiles are
computed on the same axis the service measured (mixing epochs skewed
p99 under overload).  ``loop.time()`` survives only inside the
micro-batcher's linger scheduling, where only differences of the same
clock are ever taken.

Every stage reports to :mod:`repro.obs`: ``serve.requests`` /
``serve.shed`` / ``serve.timeouts`` / ``serve.errors`` /
``serve.completed`` / ``serve.batches`` / ``serve.retries`` counters,
``serve.queue_depth`` gauge (plus its ``serve.queue_depth.max`` high
watermark), ``serve.batch_size`` and
``serve.latency_ms`` histograms, and a ``serve.batch`` span per executed
batch — all rendered by ``repro-obs report``.
"""

from __future__ import annotations

import asyncio
import time
import traceback
from dataclasses import dataclass, field

from repro import obs
from repro.experiments.config import PaperConfig
from repro.nn import blas
from repro.reliability import FaultInjector, RetryPolicy
from repro.serve.batcher import Batch, MicroBatcher
from repro.serve.models import ModelRepository, execute_batch
from repro.serve.requests import ServeRequest, ServeResponse

__all__ = ["ServeConfig", "InferenceService", "PendingRequest"]

#: Queue sentinel: flush every lingering partial batch (drain/shutdown).
_FLUSH = object()


@dataclass(frozen=True)
class ServeConfig:
    """Service knobs (see module docstring for how they interact)."""

    scale: str = "tiny"
    networks: tuple[str, ...] = ("alex", "cnnS")
    seed: int = 7
    max_batch: int = 8
    linger_ms: float = 2.0
    queue_limit: int = 64
    workers: int = 2
    deterministic: bool = False
    use_cache: bool = True

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if not self.linger_ms >= 0:
            raise ValueError("linger_ms must be >= 0")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def streams(self) -> int:
        """Workers that compute at once: deterministic mode runs one."""
        return 1 if self.deterministic else self.workers

    def paper_config(self, cache_dir=None) -> PaperConfig:
        kwargs = {
            "scale": self.scale,
            "networks": list(self.networks),
            "seed": self.seed,
            "use_cache": self.use_cache,
        }
        if cache_dir is not None:
            kwargs["cache_dir"] = cache_dir
        return PaperConfig(**kwargs)


@dataclass
class PendingRequest:
    """A queued request with its completion future and time coordinates."""

    request: ServeRequest
    future: asyncio.Future
    enqueued_at: float
    deadline_at: float | None = None


@dataclass
class _ServiceState:
    queue: asyncio.Queue = None
    batches: asyncio.Queue = None
    tasks: list = field(default_factory=list)


class InferenceService:
    """The serving front end over one :class:`ModelRepository`."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        repo: ModelRepository | None = None,
        policy: RetryPolicy | None = None,
        injector: FaultInjector | None = None,
        cache_dir=None,
    ):
        self.config = config if config is not None else ServeConfig()
        self.repo = repo if repo is not None else ModelRepository(
            self.config.paper_config(cache_dir)
        )
        # Serving default: one retry with a short deterministic backoff.
        self.policy = policy if policy is not None else RetryPolicy(
            max_attempts=2, backoff_base=0.02, backoff_max=0.25,
            seed=self.config.seed,
        )
        self.injector = injector if injector is not None else FaultInjector.from_settings()
        self.batcher = MicroBatcher(
            max_batch=self.config.max_batch,
            linger_s=self.config.linger_ms / 1e3,
            deterministic=self.config.deterministic,
        )
        self._state: _ServiceState | None = None
        self._pending: set[asyncio.Future] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._state is not None

    async def start(self) -> None:
        if self._state is not None:
            raise RuntimeError("service already started")
        workers = self.config.streams
        # Calibration is lazy, so nothing has computed yet: the one
        # point where this process's BLAS count can still be decided.
        blas.decide(workers)
        state = _ServiceState(
            queue=asyncio.Queue(maxsize=self.config.queue_limit),
            batches=asyncio.Queue(maxsize=max(2, 2 * workers)),
        )
        state.tasks.append(asyncio.create_task(self._dispatch_loop(state)))
        for index in range(workers):
            state.tasks.append(
                asyncio.create_task(self._worker_loop(state, index))
            )
        self._state = state

    async def stop(self) -> None:
        """Drain outstanding work, then tear the task pool down."""
        if self._state is None:
            return
        await self.drain()
        state, self._state = self._state, None
        for task in state.tasks:
            task.cancel()
        await asyncio.gather(*state.tasks, return_exceptions=True)

    async def flush(self) -> None:
        """Cut every lingering partial batch without awaiting completion.

        Deterministic mode has no linger clock, so a caller that cannot
        arrange a final :meth:`drain` (a shard worker serving a remote
        router) flushes explicitly after enqueueing — the sharded tier's
        replacement for drain-driven batch cuts.
        """
        state = self._require_state()
        await state.queue.put(_FLUSH)

    async def drain(self) -> None:
        """Flush partial batches and wait for every accepted request."""
        state = self._require_state()
        await state.queue.put(_FLUSH)
        while True:
            pending = [f for f in self._pending if not f.done()]
            if not pending:
                break
            await asyncio.wait(pending)

    def _require_state(self) -> _ServiceState:
        if self._state is None:
            raise RuntimeError("service is not started")
        return self._state

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def try_submit(self, request: ServeRequest) -> asyncio.Future | ServeResponse:
        """Enqueue, or return the explicit shed response when full.

        The bounded queue is the backpressure contract: a rejected
        request costs one small response object, so sustained overload
        keeps memory flat (pinned by the overload test).
        """
        state = self._require_state()
        obs.counter_add("serve.requests")
        error = self.repo.admission_error(request)
        if error is not None:
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            future.set_result(self._finished(request, "error", {"error": error}))
            return future
        now = time.perf_counter()
        entry = PendingRequest(
            request=request,
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=now,
            deadline_at=(
                None
                if request.deadline_ms is None
                else now + request.deadline_ms / 1e3
            ),
        )
        try:
            state.queue.put_nowait(entry)
        except asyncio.QueueFull:
            obs.counter_add("serve.shed")
            return ServeResponse(
                id=request.id, status="shed", kind=request.kind,
                network=request.network,
                payload={"error": "queue full", "queue_limit": self.config.queue_limit},
            )
        depth = state.queue.qsize()
        obs.gauge_set("serve.queue_depth", depth)
        obs.gauge_max("serve.queue_depth.max", depth)
        self._pending.add(entry.future)
        entry.future.add_done_callback(self._pending.discard)
        return entry.future

    async def submit(self, request: ServeRequest) -> ServeResponse:
        """Submit and await the response (shed resolves immediately)."""
        outcome = self.try_submit(request)
        if isinstance(outcome, ServeResponse):
            return outcome
        return await outcome

    # ------------------------------------------------------------------
    # pipeline tasks
    # ------------------------------------------------------------------
    async def _dispatch_loop(self, state: _ServiceState) -> None:
        loop = asyncio.get_running_loop()
        while True:
            timeout = self.batcher.next_due(loop.time())
            try:
                if timeout is None:
                    entry = await state.queue.get()
                else:
                    entry = await asyncio.wait_for(state.queue.get(), timeout)
            except (TimeoutError, asyncio.TimeoutError):
                entry = None
            if entry is _FLUSH:
                for batch in self.batcher.flush():
                    await state.batches.put(batch)
                continue
            if entry is not None:
                depth = state.queue.qsize()
                obs.gauge_set("serve.queue_depth", depth)
                obs.gauge_max("serve.queue_depth.max", depth)
                batch = self.batcher.add(entry, loop.time())
                if batch is not None:
                    await state.batches.put(batch)
            for batch in self.batcher.due(loop.time()):
                await state.batches.put(batch)

    async def _worker_loop(self, state: _ServiceState, index: int) -> None:
        while True:
            batch = await state.batches.get()
            try:
                await self._execute(batch)
            finally:
                state.batches.task_done()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _finished(
        self, request: ServeRequest, status: str, payload: dict
    ) -> ServeResponse:
        counter = {
            "ok": "serve.completed",
            "timeout": "serve.timeouts",
            "error": "serve.errors",
        }[status]
        obs.counter_add(counter)
        return ServeResponse(
            id=request.id, status=status, kind=request.kind,
            network=request.network, payload=payload,
        )

    def _resolve(self, entry: PendingRequest, response: ServeResponse) -> None:
        if not entry.future.done():
            latency_ms = (time.perf_counter() - entry.enqueued_at) * 1e3
            response.latency_ms = round(latency_ms, 3)
            obs.observe("serve.latency_ms", latency_ms)
            entry.future.set_result(response)

    async def _execute(self, batch: Batch) -> None:
        now = time.perf_counter()
        live: list[PendingRequest] = []
        for entry in batch.entries:
            if entry.deadline_at is not None and now >= entry.deadline_at:
                self._resolve(
                    entry,
                    self._finished(
                        entry.request, "timeout",
                        {"error": "deadline expired before execution"},
                    ),
                )
            else:
                live.append(entry)
        if not live:
            return
        requests = [entry.request for entry in live]
        label = f"serve/{batch.network}"
        attempt = 0
        with obs.span(
            "serve.batch", cat="serve", network=batch.network,
            size=len(live), reason=batch.reason,
            req_ids=[entry.request.id for entry in live],
        ):
            while True:
                try:
                    self.injector.fire("serve:batch", trial=attempt)
                    responses = await asyncio.to_thread(
                        execute_batch, self.repo, requests
                    )
                    break
                except Exception:
                    obs.counter_add("serve.batch_failures")
                    if not self.policy.retries_left(attempt):
                        detail = traceback.format_exc(limit=4)
                        responses = [
                            self._finished(req, "error", {"error": detail})
                            for req in requests
                        ]
                        break
                    obs.counter_add("serve.retries")
                    delay = self.policy.delay(label, attempt)
                    attempt += 1
                    if delay > 0:
                        await asyncio.sleep(delay)
        obs.counter_add("serve.batches")
        obs.observe("serve.batch_size", len(live))
        for entry, response in zip(live, responses):
            if response.status == "ok":
                obs.counter_add("serve.completed")
            response.batch_size = len(live)
            self._resolve(entry, response)
